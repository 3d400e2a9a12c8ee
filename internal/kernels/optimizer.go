package kernels

import (
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The optimizer: peephole passes over generated Thumb-1 kernel text.
// The unrolled generator (unrolled.go) emits deliberately naive code —
// rewind-to-zero window moves, movs-zero accumulator inits, str+adds
// store sequences — and these passes rewrite it into the deployed form:
//
//   - add/sub coalescing: adjacent immediate adds/subs runs on one
//     register (the window rewind+advance pairs) fold into the minimal
//     net move;
//   - dead-flag elimination: a "movs rX, #0" whose only consumer is the
//     first accumulate is deleted, the accumulate rewritten to the
//     flag-neutral "mov rX, r0" (or "rsbs rX, r0" for a leading
//     subtract) — legal exactly because the flags it set are proven
//     dead;
//   - strength reduction: "str rX, [rC]; adds rC, #4" becomes
//     "stmia rC!, {rX}", and adjacent ascending stmia merge into one
//     multi-register store (3 cycles per word down to 1+n for n words).
//
// Every rewrite is semantics-preserving for the registers a kernel may
// legally expose (AAPCS: callee-saved regs and memory; flags are dead at
// the return) and never slower; FuzzOptimizerParity pins bit-for-bit
// output equality and cycle parity (optimized <= unoptimized) across
// all three execution tiers.

// asmLine is one parsed line of kernel text.
type asmLine struct {
	raw  string // original text, kept verbatim for untouched lines
	kind int    // lineInstr, lineLabel, lineDirective, lineBlank
	norm string // instr only: comment-stripped, whitespace-normalized body
	mnem string // instr only: first token of norm
}

const (
	lineInstr = iota
	lineLabel
	lineDirective
	lineBlank
)

// parseAsm splits kernel text into lines, classifying each.
func parseAsm(src string) []asmLine {
	var out []asmLine
	for _, raw := range strings.Split(src, "\n") {
		l := asmLine{raw: raw}
		body := raw
		if i := strings.IndexByte(body, '@'); i >= 0 {
			body = body[:i]
		}
		body = strings.Join(strings.Fields(body), " ")
		switch {
		case body == "":
			l.kind = lineBlank
		case strings.HasSuffix(body, ":"):
			l.kind = lineLabel
		case strings.HasPrefix(strings.TrimSpace(raw), "."):
			l.kind = lineDirective
		default:
			l.kind = lineInstr
			l.norm = body
			if i := strings.IndexByte(body, ' '); i >= 0 {
				l.mnem = body[:i]
			} else {
				l.mnem = body
			}
		}
		out = append(out, l)
	}
	return out
}

// renderAsm joins lines back into text, dropping deleted entries.
func renderAsm(lines []asmLine) string {
	var b strings.Builder
	for i, l := range lines {
		if l.kind == lineBlank && l.raw == "" && i == len(lines)-1 {
			continue // preserve single trailing newline
		}
		b.WriteString(l.raw)
		b.WriteString("\n")
	}
	return b.String()
}

// instrLine builds a fresh instruction line.
func instrLine(body string) asmLine {
	mnem := body
	if i := strings.IndexByte(body, ' '); i >= 0 {
		mnem = body[:i]
	}
	return asmLine{raw: "\t" + body, kind: lineInstr, norm: body, mnem: mnem}
}

// condBranches are the flag-reading branch mnemonics.
var condBranches = map[string]bool{
	"beq": true, "bne": true, "bcs": true, "bhs": true, "bcc": true, "blo": true,
	"bmi": true, "bpl": true, "bvs": true, "bvc": true, "bhi": true, "bls": true,
	"bge": true, "blt": true, "bgt": true, "ble": true,
}

// flagKillers write all of N, Z, C, V, so any earlier flag definition is
// dead past them. Partial setters (movs, shifts, muls: N and Z only) are
// deliberately excluded.
var flagKillers = map[string]bool{
	"adds": true, "subs": true, "rsbs": true, "cmp": true, "cmn": true,
}

// flagsDeadAfter reports whether the flags defined at line i are
// provably unread on every path from i+1. The scan follows fallthrough
// and unconditional branches, stops dead at full flag writers and
// function exits, and gives up (flags live) at anything it cannot
// rule out — calls, conditional branches, flag-consuming arithmetic.
func flagsDeadAfter(lines []asmLine, i int) bool {
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l.kind != lineInstr {
			continue // labels/directives/blanks carry no flag effect
		}
		m := l.mnem
		switch {
		case condBranches[m] || m == "adcs" || m == "sbcs":
			return false // reads flags
		case m == "bl" || m == "blx":
			return false // unknown callee
		case m == "b":
			// Follow the unconditional branch to its (forward) label.
			target := strings.TrimSpace(strings.TrimPrefix(l.norm, "b "))
			for k := range lines {
				if lines[k].kind == lineLabel &&
					strings.TrimSuffix(strings.Join(strings.Fields(lines[k].raw), ""), ":") == target {
					if k <= j {
						return false // backward edge: loop, give up
					}
					j = k
					goto next
				}
			}
			return false
		case m == "bx" || m == "bkpt":
			return true // function exit: AAPCS makes flags dead
		case m == "pop" && strings.Contains(l.norm, "pc"):
			return true
		case flagKillers[m]:
			return true
		}
	next:
	}
	return false
}

// pattern is an anchored instruction regexp together with the
// mnemonics it can match, so a line with any other mnemonic (labels and
// directives have none) skips the regexp engine.
type pattern struct {
	re    *regexp.Regexp
	mnems []string
}

// match returns the submatches of the line's normalized body, or nil.
func (p pattern) match(l asmLine) []string {
	if !slices.Contains(p.mnems, l.mnem) {
		return nil
	}
	return p.re.FindStringSubmatch(l.norm)
}

var (
	reAddSubImm = pattern{regexp.MustCompile(`^(adds|subs) (r\d+), #(\d+)$`), []string{"adds", "subs"}}
	reMovsZero  = pattern{regexp.MustCompile(`^movs (r\d+), #0$`), []string{"movs"}}
	reAcc3      = pattern{regexp.MustCompile(`^(adds|subs) (r\d+), (r\d+), (r\d+)$`), []string{"adds", "subs"}}
	reStr       = pattern{regexp.MustCompile(`^str (r\d+), \[(r\d+)\]$`), []string{"str"}}
	reAddImm    = pattern{regexp.MustCompile(`^adds (r\d+), #(\d+)$`), []string{"adds"}}
	reStmia     = pattern{regexp.MustCompile(`^stmia (r\d+)!, \{(.+)\}$`), []string{"stmia"}}
)

// mentionsReg reports whether register name r occurs in s as a whole
// word (the \b-delimited match, without compiling a pattern per call).
func mentionsReg(s, r string) bool {
	for i := 0; i+len(r) <= len(s); {
		j := strings.Index(s[i:], r)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(r)
		if (j == 0 || !isWordByte(s[j-1])) && (end == len(s) || !isWordByte(s[end])) {
			return true
		}
		i = j + 1
	}
	return false
}

func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

// readsReg conservatively reports whether the instruction body reads
// register r (any mention that is not a pure destination is a read; to
// stay safe, any mention at all counts except for "movs r, #imm").
func readsReg(l asmLine, r string) bool {
	if !mentionsReg(l.norm, r) {
		return false
	}
	if m := reMovsZero.match(l); m != nil && m[1] == r {
		return false // pure write
	}
	return true
}

// coalesceAddSub folds maximal runs of >= 2 consecutive immediate
// adds/subs on one register into the minimal instruction sequence for
// their net displacement (deleting the run outright when it cancels).
// Applied to the unrolled generator's rewind-to-zero + advance window
// move pairs. Requires the run's flags to be dead.
func coalesceAddSub(lines, out []asmLine) ([]asmLine, bool) {
	changed := false
	for i := 0; i < len(lines); i++ {
		m := reAddSubImm.match(lines[i])
		if lines[i].kind != lineInstr || m == nil {
			out = append(out, lines[i])
			continue
		}
		reg := m[2]
		net := 0
		j := i
		for ; j < len(lines) && lines[j].kind == lineInstr; j++ {
			mm := reAddSubImm.match(lines[j])
			if mm == nil || mm[2] != reg {
				break
			}
			v, _ := strconv.Atoi(mm[3])
			if mm[1] == "adds" {
				net += v
			} else {
				net -= v
			}
		}
		runLen := j - i
		if runLen < 2 || !flagsDeadAfter(lines, j-1) {
			out = append(out, lines[i])
			continue
		}
		op, mag := "adds", net
		if net < 0 {
			op, mag = "subs", -net
		}
		var repl []asmLine
		for mag > 0 {
			step := mag
			if step > 255 {
				step = 255
			}
			repl = append(repl, instrLine(fmt.Sprintf("%s %s, #%d", op, reg, step)))
			mag -= step
		}
		if len(repl) >= runLen {
			out = append(out, lines[i])
			continue // no win
		}
		// The replacement is itself a minimal run, so nothing in it can
		// coalesce further: resume after the folded run. A run that
		// cancels outright also passes over the line after it, as the
		// in-place deletion this sweep replaces always did.
		out = append(out, repl...)
		i = j - 1
		if len(repl) == 0 && j < len(lines) {
			out = append(out, lines[j])
			i = j
		}
		changed = true
	}
	return out, changed
}

// foldZeroInit deletes a "movs rX, #0" whose first and only use of rX is
// an accumulate, rewriting "adds rX, rX, rS" to the flag-neutral
// "mov rX, rS" and "subs rX, rX, rS" to "rsbs rX, rS" (both compute the
// same value from a zero accumulator). The dead-flag analysis licenses
// the rewrite: the scan aborts at any flag reader, and the mov form
// additionally requires the accumulate's own flags to be dead.
func foldZeroInit(lines, out []asmLine) ([]asmLine, bool) {
	changed := false
	for i := range lines {
		if foldOneZeroInit(lines, i) {
			changed = true
			continue
		}
		out = append(out, lines[i])
	}
	return out, changed
}

// foldOneZeroInit applies foldZeroInit at line i: when line i is a
// foldable init it rewrites the accumulate in place (a later line) and
// reports true, and the caller drops line i. Scans only look forward of
// i, so the lines already dropped never matter.
func foldOneZeroInit(lines []asmLine, i int) bool {
	mz := reMovsZero.match(lines[i])
	if lines[i].kind != lineInstr || mz == nil {
		return false
	}
	reg := mz[1]
	for j := i + 1; j < len(lines); j++ {
		l := lines[j]
		if l.kind == lineLabel || l.kind == lineDirective {
			break // control may join here; keep the init
		}
		if l.kind != lineInstr {
			continue
		}
		m := l.mnem
		if condBranches[m] || m == "adcs" || m == "sbcs" ||
			m == "b" || m == "bl" || m == "bx" || m == "bkpt" || m == "pop" {
			break
		}
		if !readsReg(l, reg) {
			continue
		}
		acc := reAcc3.match(l)
		if acc == nil || acc[2] != reg || acc[3] != reg || acc[4] == reg {
			break // some other use: keep the init
		}
		if acc[1] == "adds" {
			// adds sets NZCV, mov sets nothing: need the flags dead.
			if !flagsDeadAfter(lines, j) {
				break
			}
			lines[j] = instrLine(fmt.Sprintf("mov %s, %s", reg, acc[4]))
		} else {
			// rsbs computes 0-rS with the same flags subs did.
			lines[j] = instrLine(fmt.Sprintf("rsbs %s, %s", reg, acc[4]))
		}
		return true
	}
	return false
}

// strengthReduceStores rewrites "str rX, [rC]" + "adds rC, #4" into
// "stmia rC!, {rX}" (3 cycles to 2), then merges adjacent ascending
// stmia on the same cursor into one multi-register store (2n cycles to
// 1+n). The adds' flags must be dead — stmia sets none.
func strengthReduceStores(lines, out []asmLine) ([]asmLine, bool) {
	changed := false
	for i := 0; i < len(lines); i++ {
		if i+1 < len(lines) && storeIncrement(lines, i) {
			st := reStr.match(lines[i])
			out = append(out, instrLine(fmt.Sprintf("stmia %s!, {%s}", st[2], st[1])))
			i++ // the adds folded into the stmia
			changed = true
			continue
		}
		out = append(out, lines[i])
	}
	// Merge runs of adjacent stmia into the last kept line, compacting
	// in place: the write index never passes the read index.
	merged := out[:0]
	for _, l := range out {
		if n := len(merged); n > 0 {
			if m, ok := mergeStmia(merged[n-1], l); ok {
				merged[n-1] = m
				changed = true
				continue
			}
		}
		merged = append(merged, l)
	}
	return merged, changed
}

// storeIncrement reports whether lines i, i+1 are "str rX, [rC]" +
// "adds rC, #4" with the adds' flags dead.
func storeIncrement(lines []asmLine, i int) bool {
	st := reStr.match(lines[i])
	if lines[i].kind != lineInstr || st == nil || lines[i+1].kind != lineInstr {
		return false
	}
	ad := reAddImm.match(lines[i+1])
	if ad == nil || ad[1] != st[2] || ad[2] != "4" || st[1] == st[2] {
		return false
	}
	return flagsDeadAfter(lines, i+1)
}

// mergeStmia merges two stmia on the same cursor whose register lists
// stay ascending when concatenated.
func mergeStmia(x, y asmLine) (asmLine, bool) {
	a := reStmia.match(x)
	b := reStmia.match(y)
	if a == nil || b == nil || a[1] != b[1] {
		return asmLine{}, false
	}
	// Register lists must stay ascending for the merged STMIA.
	lastA := strings.TrimSpace(a[2][strings.LastIndex(a[2], ",")+1:])
	firstB := strings.TrimSpace(b[2])
	if i := strings.IndexByte(firstB, ','); i >= 0 {
		firstB = firstB[:i]
	}
	na, _ := strconv.Atoi(strings.TrimPrefix(lastA, "r"))
	nb, _ := strconv.Atoi(strings.TrimPrefix(firstB, "r"))
	cursor, _ := strconv.Atoi(strings.TrimPrefix(a[1], "r"))
	if nb <= na || na == cursor || nb == cursor {
		return asmLine{}, false
	}
	return instrLine(fmt.Sprintf("stmia %s!, {%s, %s}", a[1], a[2], b[2])), true
}

// Optimize applies the peephole passes to one generated kernel's text
// until a fixed point. It is only ever applied to straight-line
// (unrolled) kernels by the image builder, but is safe on any generated
// kernel: every pass proves its flag and register conditions before
// rewriting.
func Optimize(src string) string {
	lines := parseAsm(src)
	// The passes only ever shrink the text, so two buffers of the
	// original length serve every pass of every round: each reads one
	// and writes the other.
	spare := make([]asmLine, 0, len(lines))
	for round := 0; round < 8; round++ {
		changed := false
		for _, pass := range []func(lines, out []asmLine) ([]asmLine, bool){
			foldZeroInit, coalesceAddSub, strengthReduceStores,
		} {
			out, c := pass(lines, spare[:0])
			lines, spare = out, lines
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	return renderAsm(lines)
}

// OptimizeEntry deletes dead descriptor loads from generated entry
// code: an unrolled kernel embeds its buffer addresses as literals and
// ignores r0, so the "ldr r0, =descN" feeding its BL is dead — the
// cross-layer register reallocation that saves 2+2ws cycles per
// unrolled layer per inference. selfContained names the kernels that
// take no descriptor.
func OptimizeEntry(entry string, selfContained map[string]bool) string {
	lines := parseAsm(entry)
	out := make([]asmLine, 0, len(lines))
	for _, l := range lines {
		if l.kind == lineInstr && l.mnem == "bl" && selfContained[strings.TrimSpace(strings.TrimPrefix(l.norm, "bl "))] {
			if n := len(out); n > 0 && out[n-1].kind == lineInstr && strings.HasPrefix(out[n-1].norm, "ldr r0, =") {
				out = out[:n-1]
			}
		}
		out = append(out, l)
	}
	return renderAsm(out)
}
