package kernels

import (
	"strconv"
	"strings"
	"unicode/utf8"
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
	raw   string // original text, kept verbatim for untouched lines
	kind  int    // lineInstr, lineLabel, lineDirective, lineBlank
	norm  string // instr only: comment-stripped, whitespace-normalized body
	mnem  string // instr only: first token of norm
	label string // label only: the label name as branches spell it
}

const (
	lineInstr = iota
	lineLabel
	lineDirective
	lineBlank
)

// parseAsm splits kernel text into lines, classifying each.
func parseAsm(src string) []asmLine {
	out := make([]asmLine, 0, strings.Count(src, "\n")+1)
	for {
		raw, rest, more := strings.Cut(src, "\n")
		l := asmLine{raw: raw}
		body := raw
		if i := strings.IndexByte(body, '@'); i >= 0 {
			body = body[:i]
		}
		body = normalize(body)
		switch {
		case body == "":
			l.kind = lineBlank
		case strings.HasSuffix(body, ":"):
			l.kind = lineLabel
			l.label = strings.TrimSuffix(strings.Join(strings.Fields(raw), ""), ":")
		case strings.HasPrefix(strings.TrimSpace(raw), "."):
			l.kind = lineDirective
		default:
			l.kind = lineInstr
			l.norm = body
			l.mnem = firstToken(body)
		}
		out = append(out, l)
		if !more {
			return out
		}
		src = rest
	}
}

// normalize returns strings.Join(strings.Fields(s), " "): s with its
// whitespace runs collapsed to single spaces and trimmed. Generated
// lines are already normalized but for their indentation, so the common
// case returns a substring of s without allocating.
func normalize(s string) string {
	t := strings.TrimSpace(s)
	for i := 0; i < len(t); i++ {
		c := t[i]
		// Trimmed, t cannot end in a space, so t[i+1] exists.
		if c >= utf8.RuneSelf || asciiSpace(c) && (c != ' ' || asciiSpace(t[i+1])) {
			return strings.Join(strings.Fields(s), " ")
		}
	}
	return t
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// firstToken is the text of a normalized body up to its first space.
func firstToken(body string) string {
	if i := strings.IndexByte(body, ' '); i >= 0 {
		return body[:i]
	}
	return body
}

// renderAsm joins lines back into text, dropping deleted entries.
func renderAsm(lines []asmLine) string {
	n := 0
	for _, l := range lines {
		n += len(l.raw) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range lines {
		if l.kind == lineBlank && l.raw == "" && i == len(lines)-1 {
			continue // preserve single trailing newline
		}
		b.WriteString(l.raw)
		b.WriteString("\n")
	}
	return b.String()
}

// instrLine builds a fresh instruction line from its normalized body,
// given as parts to concatenate.
func instrLine(parts ...string) asmLine {
	raw := "\t" + strings.Join(parts, "")
	body := raw[1:]
	return asmLine{raw: raw, kind: lineInstr, norm: body, mnem: firstToken(body)}
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
				if lines[k].kind == lineLabel && lines[k].label == target {
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

// The instruction shapes the passes rewrite are matched by shape, on
// the operand text that follows a line's mnemonic. Each matcher accepts
// exactly what the regular expression in its comment matches on the
// normalized body.

// shape matches s against tmpl, in which %r stands for a register
// (r\d+), %d for a decimal immediate (\d+) and %s for the non-empty rest
// of s before tmpl's remaining literal text (.+); all other template
// bytes must match literally. It returns the text each verb matched, in
// order.
func shape(s, tmpl string) (ops [3]string, ok bool) {
	n := 0
	for tmpl != "" {
		if tmpl[0] != '%' {
			if s == "" || s[0] != tmpl[0] {
				return ops, false
			}
			s, tmpl = s[1:], tmpl[1:]
			continue
		}
		verb := tmpl[1]
		tmpl = tmpl[2:]
		k := 0
		switch verb {
		case 'r':
			if s == "" || s[0] != 'r' {
				return ops, false
			}
			if k = 1 + digits(s[1:]); k == 1 {
				return ops, false
			}
		case 'd':
			if k = digits(s); k == 0 {
				return ops, false
			}
		case 's':
			if k = len(s) - len(tmpl); k < 1 || s[k:] != tmpl {
				return ops, false
			}
		}
		ops[n], s = s[:k], s[k:]
		n++
	}
	return ops, s == ""
}

// digits is the length of the run of decimal digits s starts with.
func digits(s string) int {
	n := 0
	for n < len(s) && '0' <= s[n] && s[n] <= '9' {
		n++
	}
	return n
}

// operands is the text after an instruction line's mnemonic.
func (l asmLine) operands() string { return l.norm[len(l.mnem):] }

// addSubImm matches `^(adds|subs) (r\d+), #(\d+)$`.
func addSubImm(l asmLine) (op, reg, imm string, ok bool) {
	if l.mnem != "adds" && l.mnem != "subs" {
		return "", "", "", false
	}
	ops, ok := shape(l.operands(), " %r, #%d")
	return l.mnem, ops[0], ops[1], ok
}

// movsZero matches `^movs (r\d+), #0$`.
func movsZero(l asmLine) (reg string, ok bool) {
	if l.mnem != "movs" {
		return "", false
	}
	ops, ok := shape(l.operands(), " %r, #0")
	return ops[0], ok
}

// acc3 matches `^(adds|subs) (r\d+), (r\d+), (r\d+)$`.
func acc3(l asmLine) (op string, regs [3]string, ok bool) {
	if l.mnem != "adds" && l.mnem != "subs" {
		return "", regs, false
	}
	regs, ok = shape(l.operands(), " %r, %r, %r")
	return l.mnem, regs, ok
}

// strReg matches `^str (r\d+), \[(r\d+)\]$`.
func strReg(l asmLine) (rx, rc string, ok bool) {
	if l.mnem != "str" {
		return "", "", false
	}
	ops, ok := shape(l.operands(), " %r, [%r]")
	return ops[0], ops[1], ok
}

// stmia matches `^stmia (r\d+)!, \{(.+)\}$`.
func stmia(l asmLine) (rc, list string, ok bool) {
	if l.mnem != "stmia" {
		return "", "", false
	}
	ops, ok := shape(l.operands(), " %r!, {%s}")
	return ops[0], ops[1], ok
}

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
	if reg, ok := movsZero(l); ok && reg == r {
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
		_, reg, _, ok := addSubImm(lines[i])
		if lines[i].kind != lineInstr || !ok {
			out = append(out, lines[i])
			continue
		}
		net := 0
		j := i
		for ; j < len(lines) && lines[j].kind == lineInstr; j++ {
			op, r, imm, ok := addSubImm(lines[j])
			if !ok || r != reg {
				break
			}
			v, _ := strconv.Atoi(imm)
			if op == "adds" {
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
			repl = append(repl, instrLine(op, " ", reg, ", #", strconv.Itoa(step)))
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
	reg, ok := movsZero(lines[i])
	if lines[i].kind != lineInstr || !ok {
		return false
	}
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
		op, regs, ok := acc3(l)
		rd, rn, rs := regs[0], regs[1], regs[2]
		if !ok || rd != reg || rn != reg || rs == reg {
			break // some other use: keep the init
		}
		if op == "adds" {
			// adds sets NZCV, mov sets nothing: need the flags dead.
			if !flagsDeadAfter(lines, j) {
				break
			}
			lines[j] = instrLine("mov ", reg, ", ", rs)
		} else {
			// rsbs computes 0-rS with the same flags subs did.
			lines[j] = instrLine("rsbs ", reg, ", ", rs)
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
			rx, rc, _ := strReg(lines[i])
			out = append(out, instrLine("stmia ", rc, "!, {", rx, "}"))
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
	rx, rc, ok := strReg(lines[i])
	if lines[i].kind != lineInstr || !ok || lines[i+1].kind != lineInstr {
		return false
	}
	op, reg, imm, ok := addSubImm(lines[i+1])
	if !ok || op != "adds" || reg != rc || imm != "4" || rx == rc {
		return false
	}
	return flagsDeadAfter(lines, i+1)
}

// mergeStmia merges two stmia on the same cursor whose register lists
// stay ascending when concatenated.
func mergeStmia(x, y asmLine) (asmLine, bool) {
	ca, la, okA := stmia(x)
	cb, lb, okB := stmia(y)
	if !okA || !okB || ca != cb {
		return asmLine{}, false
	}
	// Register lists must stay ascending for the merged STMIA.
	lastA := strings.TrimSpace(la[strings.LastIndex(la, ",")+1:])
	firstB := strings.TrimSpace(lb)
	if i := strings.IndexByte(firstB, ','); i >= 0 {
		firstB = firstB[:i]
	}
	na, _ := strconv.Atoi(strings.TrimPrefix(lastA, "r"))
	nb, _ := strconv.Atoi(strings.TrimPrefix(firstB, "r"))
	cursor, _ := strconv.Atoi(strings.TrimPrefix(ca, "r"))
	if nb <= na || na == cursor || nb == cursor {
		return asmLine{}, false
	}
	return instrLine("stmia ", ca, "!, {", la, ", ", lb, "}"), true
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
