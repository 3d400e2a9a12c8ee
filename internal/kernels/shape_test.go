package kernels

import (
	"regexp"
	"slices"
	"strings"
	"testing"
)

// shapeOracles are the regular expressions the instruction matchers
// replaced, each with the mnemonics it was tried on: for any line, a
// matcher must capture exactly what its regexp captures.
var shapeOracles = []struct {
	re    *regexp.Regexp
	mnems []string
	match func(asmLine) ([]string, bool)
}{
	{regexp.MustCompile(`^(adds|subs) (r\d+), #(\d+)$`), []string{"adds", "subs"}, func(l asmLine) ([]string, bool) {
		op, reg, imm, ok := addSubImm(l)
		return []string{op, reg, imm}, ok
	}},
	{regexp.MustCompile(`^movs (r\d+), #0$`), []string{"movs"}, func(l asmLine) ([]string, bool) {
		reg, ok := movsZero(l)
		return []string{reg}, ok
	}},
	{regexp.MustCompile(`^(adds|subs) (r\d+), (r\d+), (r\d+)$`), []string{"adds", "subs"}, func(l asmLine) ([]string, bool) {
		op, regs, ok := acc3(l)
		return []string{op, regs[0], regs[1], regs[2]}, ok
	}},
	{regexp.MustCompile(`^str (r\d+), \[(r\d+)\]$`), []string{"str"}, func(l asmLine) ([]string, bool) {
		rx, rc, ok := strReg(l)
		return []string{rx, rc}, ok
	}},
	{regexp.MustCompile(`^stmia (r\d+)!, \{(.+)\}$`), []string{"stmia"}, func(l asmLine) ([]string, bool) {
		rc, list, ok := stmia(l)
		return []string{rc, list}, ok
	}},
}

// checkShapes compares every matcher with its oracle on the first line
// of src, and normalize with the strings.Fields form it stands for.
func checkShapes(t *testing.T, src string) {
	t.Helper()
	if got, want := normalize(src), strings.Join(strings.Fields(src), " "); got != want {
		t.Errorf("normalize(%q) = %q, want %q", src, got, want)
	}
	l := parseAsm(src)[0]
	for _, o := range shapeOracles {
		var want []string
		if slices.Contains(o.mnems, l.mnem) {
			want = o.re.FindStringSubmatch(l.norm)
		}
		got, ok := o.match(l)
		if ok != (want != nil) || ok && !slices.Equal(got, want[1:]) {
			t.Errorf("%q: %v captured %q (ok=%v), want %q", src, o.re, got, ok, want)
		}
	}
}

var shapeCases = []string{
	"\tadds r1, #4",
	"\tsubs r12, #255   @ rewind",
	"\tadds r1, #",
	"\tadds r1, #4x",
	"\tadds r, #4",
	"\tadds  r1,\t#4",
	"\tmovs r3, #0",
	"\tmovs r3, #00",
	"\tmovs r3, #0 ",
	"\tadds r3, r3, r0",
	"\tsubs r7, r7, r0",
	"\tadds r3, r3, #1",
	"\tadds r3, r3",
	"\tstr r3, [r2]",
	"\tstr r3, [r2, #4]",
	"\tstr r3, [ r2 ]",
	"\tstmia r2!, {r3}",
	"\tstmia r2!, {r3, r5, r6}",
	"\tstmia r2!, {}",
	"\tstmia r2!, {r1}}",
	"\tstmia r2, {r3}",
	"  \tadds   r1 ,  #4\v",
	"\tadds\u00a0r1, #4",
	"\u0085adds r1, #4\u00a0",
	"loop:",
	"\t.pool",
	"",
}

func TestShapeMatchersMatchRegexps(t *testing.T) {
	for _, src := range shapeCases {
		checkShapes(t, src)
	}
}

// FuzzInstrShapes checks the instruction matchers against their regexp
// oracles on arbitrary lines.
func FuzzInstrShapes(f *testing.F) {
	for _, src := range shapeCases {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkShapes(t, src)
	})
}
