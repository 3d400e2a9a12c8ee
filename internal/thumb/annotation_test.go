package thumb

import (
	"regexp"
	"testing"
)

// loopAnnRe and loadAnnRe are the regular expressions the annotation
// scanner replaced, kept as its oracle: for any line, the scanner must
// find exactly what they match.
var (
	loopAnnRe = regexp.MustCompile(`asmcheck:\s*loop\s+(\d+)`)
	loadAnnRe = regexp.MustCompile(`asmcheck:\s*load\s+(\w+)`)
)

// checkAnnotations compares both scanners with their oracle on raw.
func checkAnnotations(t *testing.T, raw string) {
	t.Helper()
	for _, c := range []struct {
		re   *regexp.Regexp
		scan func(string) (string, bool)
	}{{loopAnnRe, loopAnnotation}, {loadAnnRe, loadAnnotation}} {
		got, ok := c.scan(raw)
		m := c.re.FindStringSubmatch(raw)
		if m == nil && ok {
			t.Errorf("%q: scanner found %q, %v matches nothing", raw, got, c.re)
		}
		if m != nil && (!ok || got != m[1]) {
			t.Errorf("%q: scanner found %q (ok=%v), %v matches %q", raw, got, ok, c.re, m[1])
		}
	}
}

var annotationCases = []string{
	"",
	"\tbne loop               @ asmcheck: loop 8",
	"@ asmcheck: loop 16",
	"\tldrb r0, [r1]   @ asmcheck: load flash",
	"@ asmcheck:load sram",
	"asmcheck:loop 3",
	"asmcheck: loop3",
	"asmcheck: loop 12abc",
	"asmcheck: loop -3",
	"asmcheck: loop #4",
	"asmcheck: loop",
	"asmcheck: loop ",
	"asmcheck:\t\f\r loop\t 7",
	"asmcheck: loop \v5",
	"asmcheck: loop 5",
	"ASMCHECK: loop 4",
	"asmcheck: looping 4",
	"asmcheck: load x asmcheck: loop 3",
	"asmcheck: asmcheck: loop 4",
	"asmcheck: loop 2 asmcheck: loop 9",
	"asmcheck: load periph_2 tail",
	"asmcheck: load flashé",
	"asmcheck: load é",
	"asmcheck: load\nsram",
	"asmcheckasmcheck: load sram",
	"xasmcheck: loop 99999999999999999999",
}

func TestAnnotationScannerMatchesRegexp(t *testing.T) {
	for _, raw := range annotationCases {
		checkAnnotations(t, raw)
	}
}

// FuzzAnnotations checks the annotation scanner against the regexp
// oracle on arbitrary lines.
func FuzzAnnotations(f *testing.F) {
	for _, raw := range annotationCases {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkAnnotations(t, raw)
	})
}
