package kernels

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// mnistUnrolledMatrix is a deterministic MNIST-sized (784 -> 128)
// ternary layer at the density trained Neuro-C models reach, so the
// golden covers literal-pool flushes and long accumulate runs the small
// self-test matrix never produces.
func mnistUnrolledMatrix() *encoding.Matrix {
	r := rng.New(784)
	a := encoding.NewMatrix(784, 128)
	for o := 0; o < 128; o++ {
		for i := 0; i < 784; i++ {
			if r.Bool(0.12) {
				if r.Bool(0.5) {
					a.Set(o, i, 1)
				} else {
					a.Set(o, i, -1)
				}
			}
		}
	}
	return a
}

// optimizeGolden renders one "name sha256" line per optimized kernel:
// every unrolled entry of Variants (the raw one optimized here, the
// others as Variants already optimized them) and one MNIST-sized layer
// at each unroll factor.
func optimizeGolden() string {
	var b strings.Builder
	line := func(name, src string) {
		fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256([]byte(src)))
	}
	for _, v := range Variants() {
		switch {
		case strings.HasSuffix(v.Name, "_raw") && strings.HasPrefix(v.Name, "k_unr"):
			line(v.Name, Optimize(v.Src))
		case strings.HasPrefix(v.Name, "k_unr"):
			line(v.Name, v.Src)
		}
	}
	a := mnistUnrolledMatrix()
	for _, f := range UnrollFactors {
		name := fmt.Sprintf("k_mnist_unr%d", f)
		line(name, Optimize(Unrolled(name, a, f, 0x2000_0100, 0x2000_1000)))
	}
	return b.String()
}

// TestOptimizeGolden pins the optimizer's output byte for byte: a
// rewrite of the passes (for speed or clarity) must reproduce every
// kernel exactly. Regenerate with `go test -run OptimizeGolden
// ./internal/kernels -update` only for an intended codegen change, and
// review the cycle and flash impact alongside it.
func TestOptimizeGolden(t *testing.T) {
	got := optimizeGolden()
	path := filepath.Join("testdata", "optimize.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("optimizer output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
