package profile

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// fakeTrace builds a trace by hand: two kernels, one with a local loop
// label, plus a sample that precedes every symbol.
func fakeTrace() (*armv6m.Trace, map[string]uint32) {
	tr := armv6m.NewTrace()
	add := func(pc uint32, count, cycles uint64) {
		tr.PCs.Add(pc, count, cycles)
	}
	add(0x0800_0010, 2, 2)   // k_matmul
	add(0x0800_0014, 10, 20) // k_matmul_loop (local label of k_matmul)
	add(0x0800_0030, 5, 9)   // k_requant
	add(0x0800_0002, 1, 3)   // before any symbol: raw address
	for cl := armv6m.InstrClass(0); cl < armv6m.NumClasses; cl++ {
		tr.ClassInstrs[cl] = 1
		tr.ClassCycles[cl] = 2
	}
	syms := map[string]uint32{
		"k_matmul":      0x0800_0010,
		"k_matmul_loop": 0x0800_0014,
		"k_requant":     0x0800_0030,
	}
	return tr, syms
}

func find(entries []Entry, name string) *Entry {
	for i := range entries {
		if entries[i].Symbol == name {
			return &entries[i]
		}
	}
	return nil
}

func TestSymbolizationAndKernelCollapse(t *testing.T) {
	tr, syms := fakeTrace()
	p := New(tr, syms)

	// Flat: local label stays separate.
	if e := find(p.Flat, "k_matmul_loop"); e == nil || e.Cycles != 20 {
		t.Errorf("flat k_matmul_loop = %+v, want 20 cycles", e)
	}
	if e := find(p.Flat, "k_matmul"); e == nil || e.Cycles != 2 {
		t.Errorf("flat k_matmul = %+v, want 2 cycles", e)
	}
	// Kernels: the loop collapses into its root.
	if e := find(p.Kernels, "k_matmul_loop"); e != nil {
		t.Errorf("kernel view still contains local label: %+v", e)
	}
	if e := find(p.Kernels, "k_matmul"); e == nil || e.Cycles != 22 || e.Count != 12 {
		t.Errorf("kernel k_matmul = %+v, want 22 cycles / 12 instrs", e)
	}
	// Unsymbolized sample keeps its raw address.
	if e := find(p.Flat, "0x08000002"); e == nil || e.Cycles != 3 {
		t.Errorf("unsymbolized sample = %+v, want 3 cycles", e)
	}
	// Flat is sorted by descending cycles.
	for i := 1; i < len(p.Flat); i++ {
		if p.Flat[i-1].Cycles < p.Flat[i].Cycles {
			t.Errorf("flat not sorted at %d: %+v", i, p.Flat)
		}
	}
}

func TestTablesRender(t *testing.T) {
	tr, syms := fakeTrace()
	p := New(tr, syms)
	var b bytes.Buffer
	p.HotTable(2).Fprint(&b)
	p.KernelTable(0).Fprint(&b)
	p.ClassTable().Fprint(&b)
	p.BusTable().Fprint(&b)
	out := b.String()
	for _, want := range []string{"k_matmul_loop", "k_matmul", "hotspots", "kernel", "instruction class", "bus traffic"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q:\n%s", want, out)
		}
	}
	// The top-2 hotspot table notes the truncation.
	if !strings.Contains(out, "top 2 of") {
		t.Errorf("truncated table missing coverage note:\n%s", out)
	}
}

func TestWriteFolded(t *testing.T) {
	tr, syms := fakeTrace()
	p := New(tr, syms)
	var b bytes.Buffer
	if err := p.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var total uint64
	seen := map[string]bool{}
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) != 2 {
			t.Fatalf("bad folded line %q", ln)
		}
		seen[fields[0]] = true
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("bad cycle count in %q: %v", ln, err)
		}
		total += v
	}
	// Local label nests under its kernel root.
	if !seen["k_matmul;k_matmul_loop"] {
		t.Errorf("missing nested stack, got %v", seen)
	}
	if !seen["k_requant"] || !seen["k_matmul"] {
		t.Errorf("missing root stacks, got %v", seen)
	}
	// Folded cycles sum to the PC histogram total.
	var want uint64
	tr.PCs.Each(func(_ uint32, s armv6m.PCSample) { want += s.Cycles })
	if total != want {
		t.Errorf("folded cycles %d, histogram %d", total, want)
	}
}

func TestWriteJSON(t *testing.T) {
	tr, syms := fakeTrace()
	p := New(tr, syms)
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out["schema"] != "neuroc-profile/v1" {
		t.Errorf("schema = %v", out["schema"])
	}
	for _, key := range []string{"cycles", "instructions", "cpi", "classes", "exceptions", "branches", "bus", "hotspots", "kernels"} {
		if _, ok := out[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
	if n := len(out["classes"].([]any)); n != int(armv6m.NumClasses) {
		t.Errorf("classes has %d rows, want %d", n, armv6m.NumClasses)
	}
}

func TestNilSymbols(t *testing.T) {
	tr, _ := fakeTrace()
	p := New(tr, nil)
	for _, e := range p.Flat {
		if !strings.HasPrefix(e.Symbol, "0x") {
			t.Errorf("entry %+v should be a raw address without symbols", e)
		}
	}
}
