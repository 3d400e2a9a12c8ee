package modelimg_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	. "github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// mnistGoldenModel is a seeded MNIST-sized ternary model
// (784 -> 128 -> 48 -> 10): big enough that every encoding emits
// literal-pool flushes, long unrolled runs, and the auto search prices
// real candidates.
func mnistGoldenModel() *quant.Model {
	r := rng.New(2024)
	return &quant.Model{
		InputScale: 127,
		Layers: []*quant.Layer{
			randTernaryLayer(r, 784, 128, 0.1, true, true),
			randTernaryLayer(r, 128, 48, 0.2, true, true),
			randTernaryLayer(r, 48, 10, 0.3, false, false),
		},
	}
}

// toolchainGolden renders, per model and encoding choice, the SHA-256
// of every artifact the toolchain produces: the generated source, the
// assembled bytes, instruction metadata and symbol table, the
// certificate JSON, the static-check report JSON, and the listing, plus
// the resolved per-layer encodings.
func toolchainGolden(t *testing.T) string {
	var b strings.Builder
	models := []struct {
		name string
		m    *quant.Model
	}{{"search", searchTestModel()}, {"mnist", mnistGoldenModel()}}
	for _, md := range models {
		for _, enc := range []EncodingChoice{UseBlock, UseCSC, UseDelta, UseMixed, UseUnrolled, UseAuto} {
			img, err := Build(md.m, enc)
			if err != nil {
				t.Fatalf("%s/%v: %v", md.name, enc, err)
			}
			cj, err := img.Cert.JSON()
			if err != nil {
				t.Fatal(err)
			}
			rj, err := img.Check.JSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s/%v encodings %v\n", md.name, enc, img.Encodings)
			for _, a := range []struct {
				what string
				data []byte
			}{
				{"asm", []byte(img.Asm)},
				{"code", img.Prog.Code},
				{"instrs", []byte(fmt.Sprintf("%v", img.Prog.Instrs))},
				{"symbols", []byte(fmt.Sprintf("%v", img.Prog.Symbols))},
				{"cert", cj},
				{"check", rj},
				{"listing", []byte(img.Listing())},
			} {
				fmt.Fprintf(&b, "%s/%v %s %x\n", md.name, enc, a.what, sha256.Sum256(a.data))
			}
		}
	}
	return b.String()
}

// TestToolchainGolden pins the whole image toolchain (optimizer,
// assembler, CFG recovery and certification) byte for byte on a small
// and an MNIST-sized model in every encoding choice. A rewrite of any
// pass for speed must reproduce every artifact exactly. Regenerate with
// `go test -run ToolchainGolden ./internal/modelimg -update` only for an
// intended codegen change.
func TestToolchainGolden(t *testing.T) {
	got := toolchainGolden(t)
	path := filepath.Join("testdata", "toolchain.golden")
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
		t.Errorf("toolchain output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
