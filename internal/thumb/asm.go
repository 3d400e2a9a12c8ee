// Package thumb implements a small two-pass assembler for the ARMv6-M
// Thumb-1 instruction set, sufficient to express the bare-metal inference
// kernels in this repository (and anything else a Cortex-M0 integer
// kernel needs). The syntax follows GNU as conventions:
//
//	loop:                      @ labels end with ':'
//	    ldr   r0, =weights     @ literal-pool load
//	    ldrb  r1, [r0, r2]     @ register and immediate addressing
//	    adds  r3, r3, r1
//	    subs  r2, #1
//	    bne   loop
//	    bkpt  #0
//	    .pool                  @ flush literal pool here
//	    .word 0x12345678       @ data directives
//
// Supported directives: .word .hword .byte .space .align .pool (and the
// ignored housekeeping directives .text .thumb .syntax .global .globl
// .cpu .type .size). Comments start with '@', ';', or '//'. '#' before
// immediates is optional.
//
// Comments of the form "@ asmcheck: loop N" annotate the instruction on
// the same line (or, on a comment-only line, the next instruction) with
// a loop iteration bound consumed by the internal/asmcheck static
// analyzer; "@ asmcheck: load flash|sram|periph" likewise declares the
// memory region a load reads when the abstract interpreter cannot prove
// it (checked execution validates the claim at runtime); see
// docs/ASMCHECK.md.
package thumb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// InstrMeta maps one assembled instruction back to its source: address,
// encoded size, 1-based source line, mnemonic, and any "asmcheck: loop"
// bound annotated on it. This is what lets downstream diagnostics
// (asmcheck violations, deploy failures) point at kernel source lines.
type InstrMeta struct {
	Addr      uint32
	Size      int
	Line      int
	Mn        string
	LoopBound int // 0 when unannotated
	// LoadRegion is the "asmcheck: load" region annotation ("flash",
	// "sram", or "periph"; empty when unannotated). It is a trusted
	// hint for loads whose address the static analysis cannot resolve;
	// certificate-checked execution verifies it on every run.
	LoadRegion string
}

// Program is the output of Assemble: machine code plus the symbol table
// and per-instruction source metadata.
type Program struct {
	Base    uint32            // load address of Code[0]
	Code    []byte            // assembled bytes
	Symbols map[string]uint32 // label -> absolute address
	Instrs  []InstrMeta       // instructions in address order
}

// instrIndex finds the Instrs entry at exactly addr, or -1.
func (p *Program) instrIndex(addr uint32) int {
	i := sort.Search(len(p.Instrs), func(i int) bool { return p.Instrs[i].Addr >= addr })
	if i < len(p.Instrs) && p.Instrs[i].Addr == addr {
		return i
	}
	return -1
}

// InstrAt returns the metadata of the instruction assembled at addr.
func (p *Program) InstrAt(addr uint32) (InstrMeta, bool) {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i], true
	}
	return InstrMeta{}, false
}

// LineFor returns the 1-based source line of the instruction at addr, or
// 0 when addr does not hold an assembled instruction.
func (p *Program) LineFor(addr uint32) int {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i].Line
	}
	return 0
}

// LoopBoundAt returns the "asmcheck: loop N" bound annotated on the
// instruction at addr.
func (p *Program) LoopBoundAt(addr uint32) (int, bool) {
	if i := p.instrIndex(addr); i >= 0 && p.Instrs[i].LoopBound > 0 {
		return p.Instrs[i].LoopBound, true
	}
	return 0, false
}

// LoadRegionAt returns the "asmcheck: load <region>" annotation on the
// instruction at addr, or "" when unannotated.
func (p *Program) LoadRegionAt(addr uint32) string {
	if i := p.instrIndex(addr); i >= 0 {
		return p.Instrs[i].LoadRegion
	}
	return ""
}

// Symbol returns the address of label, or an error naming it.
func (p *Program) Symbol(label string) (uint32, error) {
	if a, ok := p.Symbols[label]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("thumb: unknown symbol %q", label)
}

// asmError is an assembly diagnostic carrying a line number.
type asmError struct {
	line int
	msg  string
}

func (e *asmError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

func errf(line int, format string, args ...interface{}) error {
	return &asmError{line: line, msg: fmt.Sprintf(format, args...)}
}

// literal is one pending literal-pool entry.
type literal struct {
	expr string // expression text, resolved in pass 2
	line int
	addr uint32 // assigned when the pool is flushed
}

// item is one assembled unit: a label, an instruction, a data
// directive, padding, or a literal pool.
type item struct {
	line       int
	addr       uint32
	size       int
	label      string     // label definition ("" for every other item)
	mn         string     // instruction mnemonic ("" for data items)
	args       []string   // operands
	data       []byte     // raw data for .byte/.hword/.space
	exprs      []string   // expressions for .word (resolved pass 2)
	width      int        // element width for exprs (4 for .word, 2 for .hword, 1 for .byte)
	lit        *literal   // for "ldr rd, =expr"
	pool       []*literal // literals placed by this pool item
	align      int        // alignment request (bytes) for align items and pools
	loopBound  int        // "asmcheck: loop N" annotation (0 = none)
	loadRegion string     // "asmcheck: load <region>" annotation ("" = none)
}

type assembler struct {
	base        uint32
	items       []item
	operands    []string // backing store of every item's args and exprs
	symbols     map[string]uint32
	labels      map[string]int // label -> line defined (duplicate detection)
	pending     []*literal
	pendingLoop int    // loop annotation from a comment-only line, for the next instruction
	pendingLoad string // load-region annotation carried the same way
	instrs      int    // instruction items so far
}

// Assemble translates src into machine code loaded at base.
func Assemble(src string, base uint32) (*Program, error) {
	if base&1 != 0 {
		return nil, fmt.Errorf("thumb: base address 0x%x is not halfword aligned", base)
	}
	a := &assembler{
		base:    base,
		symbols: make(map[string]uint32),
		labels:  make(map[string]int),
	}
	if err := a.parse(src); err != nil {
		return nil, err
	}
	// Flush any literals left at the end of the source.
	if len(a.pending) > 0 {
		a.items = append(a.items, item{line: -1, pool: a.pending, align: 4})
		a.pending = nil
	}
	a.layout()
	code, err := a.encodeAll()
	if err != nil {
		return nil, err
	}
	p := &Program{Base: base, Code: code, Symbols: a.symbols, Instrs: make([]InstrMeta, 0, a.instrs)}
	for i := range a.items {
		if it := &a.items[i]; it.mn != "" {
			p.Instrs = append(p.Instrs, InstrMeta{
				Addr: it.addr, Size: it.size, Line: it.line, Mn: it.mn,
				LoopBound: it.loopBound, LoadRegion: it.loadRegion,
			})
		}
	}
	return p, nil
}

// stripComment removes '@', ';', and '//' comments outside of brackets.
func stripComment(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, '@'); i >= 0 {
		line = line[:i]
	}
	if i := strings.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// annotation finds the first "asmcheck: <kw> <arg>" annotation in raw,
// where the regular expression `asmcheck:\s*<kw>\s+(<arg>)` would:
// arg is the longest non-empty run of bytes isArg accepts. It returns
// the arg, or ok=false when no annotation matches.
func annotation(raw, kw string, isArg func(byte) bool) (arg string, ok bool) {
	const tag = "asmcheck:"
	for i := 0; ; {
		j := strings.Index(raw[i:], tag)
		if j < 0 {
			return "", false
		}
		i += j + len(tag)
		k := skipSpace(raw, i)
		if !strings.HasPrefix(raw[k:], kw) {
			continue
		}
		k += len(kw)
		start := skipSpace(raw, k)
		end := start
		for end < len(raw) && isArg(raw[end]) {
			end++
		}
		if start > k && end > start {
			return raw[start:end], true
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not regexp \s whitespace (tab, newline, form feed, carriage return,
// space).
func skipSpace(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case '\t', '\n', '\f', '\r', ' ':
			i++
		default:
			return i
		}
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isWordByte(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

// loopAnnotation finds the "asmcheck: loop N" annotation of a source
// line, and loadAnnotation its "asmcheck: load <region>" annotation.
func loopAnnotation(raw string) (string, bool) { return annotation(raw, "loop", isDigit) }
func loadAnnotation(raw string) (string, bool) { return annotation(raw, "load", isWordByte) }

// splitOperands appends the operands of s to dst: s is split on commas
// that are not inside [] or {} groups, and each operand trimmed.
func splitOperands(dst []string, s string) []string {
	n := len(dst)
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				dst = append(dst, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(dst) > n {
		dst = append(dst, last)
	}
	return dst
}

// operandsOf splits s into the assembler's shared operand store and
// returns the operands as a slice of their own.
func (a *assembler) operandsOf(s string) []string {
	n := len(a.operands)
	a.operands = splitOperands(a.operands, s)
	return a.operands[n:len(a.operands):len(a.operands)]
}

func (a *assembler) parse(src string) error {
	// A line holds at most one instruction or directive, so the line
	// count bounds the items but for extra labels, and it plus the
	// comma count bounds the operands.
	lines := strings.Count(src, "\n") + 1
	a.items = make([]item, 0, lines)
	a.operands = make([]string, 0, lines+strings.Count(src, ","))
	for ln := 1; ; ln++ {
		raw, rest, more := strings.Cut(src, "\n")
		if err := a.parseLine(ln, raw); err != nil {
			return err
		}
		if !more {
			return nil
		}
		src = rest
	}
}

// parseLine parses source line ln (1-based).
func (a *assembler) parseLine(ln int, raw string) error {
	line := stripComment(raw)
	if m, ok := loopAnnotation(raw); ok {
		n, err := strconv.Atoi(m)
		if err != nil || n <= 0 {
			return errf(ln, "bad asmcheck loop bound %q", m)
		}
		// Attach to the instruction on this line, or carry to the
		// next one when the annotation sits on its own line.
		a.pendingLoop = n
	}
	if m, ok := loadAnnotation(raw); ok {
		switch m {
		case "flash", "sram", "periph":
			a.pendingLoad = m
		default:
			return errf(ln, "bad asmcheck load region %q (want flash, sram, or periph)", m)
		}
	}
	for line != "" {
		// Labels (possibly several) at the start of the line.
		if i := strings.IndexByte(line, ':'); i >= 0 && isLabel(line[:i]) {
			name := line[:i]
			if _, dup := a.labels[name]; dup {
				return errf(ln, "duplicate label %q (first defined at line %d)", name, a.labels[name])
			}
			a.labels[name] = ln
			a.items = append(a.items, item{line: ln, label: name})
			line = strings.TrimSpace(line[i+1:])
			continue
		}
		break
	}
	if line == "" {
		return nil
	}
	mn, rest := line, ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		mn, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	mn = strings.ToLower(strings.TrimSpace(mn))
	if strings.HasPrefix(mn, ".") {
		return a.parseDirective(ln, mn, rest)
	}
	args := a.operandsOf(rest)
	it := item{line: ln, mn: mn, args: args, size: 2, loopBound: a.pendingLoop, loadRegion: a.pendingLoad}
	a.pendingLoop = 0
	a.pendingLoad = ""
	switch mn {
	case "bl":
		it.size = 4
	case "ldr":
		// "ldr rd, =expr" goes through the literal pool.
		if len(args) == 2 && strings.HasPrefix(args[1], "=") {
			lit := &literal{expr: strings.TrimSpace(args[1][1:]), line: ln}
			// Reuse an identical pending literal.
			for _, p := range a.pending {
				if p.expr == lit.expr {
					lit = p
					break
				}
			}
			if lit.addr == 0 && !containsLit(a.pending, lit) {
				a.pending = append(a.pending, lit)
			}
			it.lit = lit
		}
	}
	a.items = append(a.items, it)
	a.instrs++
	return nil
}

func containsLit(list []*literal, l *literal) bool {
	for _, p := range list {
		if p == l {
			return true
		}
	}
	return false
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (a *assembler) parseDirective(ln int, mn, rest string) error {
	switch mn {
	case ".text", ".thumb", ".thumb_func", ".syntax", ".global", ".globl",
		".cpu", ".type", ".size", ".code", ".arch", ".file", ".section":
		return nil // housekeeping, ignored
	case ".word", ".long", ".int":
		exprs := a.operandsOf(rest)
		if len(exprs) == 0 {
			return errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, item{line: ln, exprs: exprs, width: 4, size: 4 * len(exprs)})
		return nil
	case ".hword", ".short", ".2byte":
		exprs := a.operandsOf(rest)
		if len(exprs) == 0 {
			return errf(ln, "%s needs at least one value", mn)
		}
		a.items = append(a.items, item{line: ln, exprs: exprs, width: 2, size: 2 * len(exprs)})
		return nil
	case ".byte":
		exprs := a.operandsOf(rest)
		if len(exprs) == 0 {
			return errf(ln, ".byte needs at least one value")
		}
		a.items = append(a.items, item{line: ln, exprs: exprs, width: 1, size: len(exprs)})
		return nil
	case ".space", ".skip", ".zero":
		n, ok := parseNumber(rest)
		if !ok || n < 0 {
			return errf(ln, "bad .space size %q", rest)
		}
		a.items = append(a.items, item{line: ln, data: make([]byte, n), size: int(n)})
		return nil
	case ".align", ".balign":
		n, ok := parseNumber(rest)
		if !ok || n <= 0 || n&(n-1) != 0 {
			return errf(ln, ".align needs a power-of-two byte alignment, got %q", rest)
		}
		a.items = append(a.items, item{line: ln, align: int(n)})
		return nil
	case ".pool", ".ltorg":
		if len(a.pending) > 0 {
			a.items = append(a.items, item{line: ln, pool: a.pending, align: 4})
			a.pending = nil
		}
		return nil
	default:
		return errf(ln, "unknown directive %s", mn)
	}
}

// layout assigns addresses (pass 1). All instruction sizes are fixed, so
// a single forward walk suffices; pool and align items derive their size
// from the current address.
func (a *assembler) layout() {
	addr := a.base
	for i := range a.items {
		it := &a.items[i]
		if it.label != "" {
			a.symbols[it.label] = addr
			continue
		}
		if it.align != 0 && it.pool == nil { // .align
			pad := int(-addr) & (it.align - 1)
			it.size = pad
			it.addr = addr
			addr += uint32(pad)
			continue
		}
		if it.pool != nil {
			pad := int(-addr) & 3
			it.addr = addr + uint32(pad)
			for i, l := range it.pool {
				l.addr = it.addr + uint32(i)*4
			}
			it.size = 4 * len(it.pool)
			addr = it.addr + uint32(it.size)
			continue
		}
		it.addr = addr
		addr += uint32(it.size)
	}
}

// encodeAll is pass 2.
func (a *assembler) encodeAll() ([]byte, error) {
	var end uint32 = a.base
	for i := range a.items {
		if e := a.items[i].addr + uint32(a.items[i].size); e > end {
			end = e
		}
	}
	code := make([]byte, end-a.base)
	put16 := func(addr uint32, v uint16) {
		off := addr - a.base
		code[off] = byte(v)
		code[off+1] = byte(v >> 8)
	}
	for i := range a.items {
		it := &a.items[i]
		switch {
		case it.label != "":
			continue
		case it.pool != nil:
			for _, l := range it.pool {
				v, err := a.eval(l.expr, l.line)
				if err != nil {
					return nil, err
				}
				off := l.addr - a.base
				code[off] = byte(v)
				code[off+1] = byte(v >> 8)
				code[off+2] = byte(v >> 16)
				code[off+3] = byte(v >> 24)
			}
		case it.exprs != nil:
			off := it.addr - a.base
			for _, e := range it.exprs {
				v, err := a.eval(e, it.line)
				if err != nil {
					return nil, err
				}
				for b := 0; b < it.width; b++ {
					code[off] = byte(v >> (8 * uint(b)))
					off++
				}
			}
		case it.data != nil:
			copy(code[it.addr-a.base:], it.data)
		case it.mn == "":
			// alignment padding: already zero
		case it.align != 0:
			// .align padding: zero bytes
		default:
			enc, err := a.encodeInstr(it)
			if err != nil {
				return nil, err
			}
			put16(it.addr, uint16(enc&0xffff))
			if it.size == 4 {
				put16(it.addr+2, uint16(enc>>16))
			}
		}
	}
	return code, nil
}

// eval resolves a small expression: number | symbol, optionally combined
// with + and - (left associative).
func (a *assembler) eval(expr string, line int) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, errf(line, "empty expression")
	}
	// Tokenize on +/- while respecting a leading sign. The current
	// token is expr[start:i].
	var total int64
	sign := int64(1)
	start := 0
	flush := func(i int) error {
		t := strings.TrimSpace(expr[start:i])
		if t == "" {
			return errf(line, "malformed expression %q", expr)
		}
		if n, ok := parseNumber(t); ok {
			total += sign * n
			return nil
		}
		if addr, ok := a.symbols[t]; ok {
			total += sign * int64(addr)
			return nil
		}
		return errf(line, "undefined symbol %q", t)
	}
	for i := 0; i < len(expr); i++ {
		ch := expr[i]
		if (ch == '+' || ch == '-') && i > start {
			if err := flush(i); err != nil {
				return 0, err
			}
			if ch == '+' {
				sign = 1
			} else {
				sign = -1
			}
			start = i + 1
			continue
		}
		if ch == '-' || ch == '+' {
			if ch == '-' {
				sign = -sign
			}
			start = i + 1
			continue
		}
	}
	if err := flush(len(expr)); err != nil {
		return 0, err
	}
	return uint32(total), nil
}

// parseNumber parses decimal, 0x hex, 0b binary, and character literals.
func parseNumber(s string) (int64, bool) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	var v uint64
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		if !allHex(s[2:]) {
			return 0, false
		}
		var err error
		if v, err = strconv.ParseUint(s[2:], 16, 64); err != nil {
			return 0, false
		}
	case strings.HasPrefix(s, "0b") || strings.HasPrefix(s, "0B"):
		for _, r := range s[2:] {
			if r != '0' && r != '1' {
				return 0, false
			}
			v = v<<1 | uint64(r-'0')
		}
	case len(s) == 3 && s[0] == '\'' && s[2] == '\'':
		v = uint64(s[1])
	default:
		for _, r := range s {
			if r < '0' || r > '9' {
				return 0, false
			}
			v = v*10 + uint64(r-'0')
		}
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, true
}

func allHex(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f', r >= 'A' && r <= 'F':
		default:
			return false
		}
	}
	return true
}

// Symbol is one named address, as returned by SymbolsInOrder.
type Symbol struct {
	Name string
	Addr uint32
}

// SymbolsInOrder returns the symbol table sorted by address (ties broken
// by name), the form profilers and disassemblers need to resolve an
// address to its nearest preceding label.
func (p *Program) SymbolsInOrder() []Symbol {
	syms := make([]Symbol, 0, len(p.Symbols))
	for n, a := range p.Symbols {
		syms = append(syms, Symbol{Name: n, Addr: a})
	}
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Addr != syms[j].Addr {
			return syms[i].Addr < syms[j].Addr
		}
		return syms[i].Name < syms[j].Name
	})
	return syms
}

// NearestSymbol resolves addr to the nearest label at or before it,
// returning the symbol and ok=false when addr precedes every label.
func (p *Program) NearestSymbol(addr uint32) (Symbol, bool) {
	syms := p.SymbolsInOrder()
	i := sort.Search(len(syms), func(i int) bool { return syms[i].Addr > addr })
	if i == 0 {
		return Symbol{}, false
	}
	return syms[i-1], true
}

// SymbolsSorted returns symbol names in address order, useful for
// disassembly listings and debugging.
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}
