// Package profile turns an armv6m.Trace — the raw per-PC, per-class,
// per-bus-region attribution counters collected by the emulator — into
// human- and tool-readable profiles. PC histograms are symbolized
// against an assembler symbol table (thumb.Program.Symbols) to the
// nearest preceding label, aggregated both per label and per kernel
// (local labels such as k_requant_tbl collapse into their k_requant
// root), and rendered as report tables, flamegraph-compatible folded
// stacks, and JSON. This is the measurement layer every kernel and
// encoding optimization in this repository is judged against.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/report"
)

// Entry is one aggregated profile row.
type Entry struct {
	Symbol string `json:"symbol"` // label name, or "0x…" when unsymbolized
	Addr   uint32 `json:"addr"`   // label base address (or the PC itself)
	Count  uint64 `json:"instructions"`
	Cycles uint64 `json:"cycles"`
}

// Profile is a symbolized view over a trace.
type Profile struct {
	Trace *armv6m.Trace

	// Flat aggregates PC samples per label, sorted by descending
	// cycles; Kernels collapses local labels (name extends another
	// label's name with "_") into their root label.
	Flat    []Entry
	Kernels []Entry

	syms []symbol
}

type symbol struct {
	name string
	addr uint32
	root string // enclosing kernel label (own name when top-level)
}

// New symbolizes t against the label->address table (may be nil or
// empty: entries then carry raw addresses).
func New(t *armv6m.Trace, symbols map[string]uint32) *Profile {
	p := &Profile{Trace: t}
	for n, a := range symbols { //neurolint:allow maporder (sorted below)
		p.syms = append(p.syms, symbol{name: n, addr: a})
	}
	sort.Slice(p.syms, func(i, j int) bool {
		if p.syms[i].addr != p.syms[j].addr {
			return p.syms[i].addr < p.syms[j].addr
		}
		return p.syms[i].name < p.syms[j].name
	})
	for i := range p.syms {
		p.syms[i].root = p.rootOf(p.syms[i].name)
	}
	p.aggregate()
	return p
}

// rootOf collapses a local label into its kernel root: the longest
// other symbol whose name, extended with "_", prefixes name (e.g.
// k_requant_tbl -> k_requant). Top-level labels are their own root.
func (p *Profile) rootOf(name string) string {
	base := name
	for {
		i := strings.LastIndexByte(base, '_')
		if i <= 0 {
			return name
		}
		base = base[:i]
		for _, s := range p.syms {
			if s.name == base {
				return base
			}
		}
	}
}

// locate resolves a PC to its nearest preceding symbol.
func (p *Profile) locate(pc uint32) (symbol, bool) {
	i := sort.Search(len(p.syms), func(i int) bool { return p.syms[i].addr > pc })
	if i == 0 {
		return symbol{}, false
	}
	return p.syms[i-1], true
}

func (p *Profile) aggregate() {
	flat := make(map[string]*Entry)
	kern := make(map[string]*Entry)
	add := func(m map[string]*Entry, name string, addr uint32, s armv6m.PCSample) {
		e := m[name]
		if e == nil {
			e = &Entry{Symbol: name, Addr: addr}
			m[name] = e
		}
		if addr < e.Addr {
			e.Addr = addr
		}
		e.Count += s.Count
		e.Cycles += s.Cycles
	}
	p.Trace.PCs.Each(func(pc uint32, s armv6m.PCSample) {
		sym, ok := p.locate(pc)
		if !ok {
			name := fmt.Sprintf("0x%08x", pc)
			add(flat, name, pc, s)
			add(kern, name, pc, s)
			return
		}
		add(flat, sym.name, sym.addr, s)
		add(kern, sym.root, sym.addr, s)
	})
	collect := func(m map[string]*Entry) []Entry {
		out := make([]Entry, 0, len(m))
		for _, e := range m { //neurolint:allow maporder (sorted below on a total order)
			out = append(out, *e)
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].Cycles != out[j].Cycles {
				return out[i].Cycles > out[j].Cycles
			}
			return out[i].Symbol < out[j].Symbol
		})
		return out
	}
	p.Flat = collect(flat)
	p.Kernels = collect(kern)
}

// TotalCycles is the cycle total the profile accounts for (instruction
// attribution plus exception-entry overhead).
func (p *Profile) TotalCycles() uint64 { return p.Trace.TotalCycles() }

// pct formats part/total as a percentage.
func pct(part, total uint64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%5.1f%%", 100*float64(part)/float64(total))
}

// HotTable renders the top-n per-label hotspot table (n <= 0: all).
func (p *Profile) HotTable(n int) *report.Table {
	return hotspotTable("Profile: hotspots by label", p.Flat, p.TotalCycles(), n)
}

// KernelTable renders the top-n per-kernel table, with local labels
// collapsed into their kernel root (n <= 0: all).
func (p *Profile) KernelTable(n int) *report.Table {
	return hotspotTable("Profile: cycles by kernel", p.Kernels, p.TotalCycles(), n)
}

func hotspotTable(title string, entries []Entry, total uint64, n int) *report.Table {
	t := report.New(title, "symbol", "addr", "instrs", "cycles", "cycles%", "cpi")
	if n <= 0 || n > len(entries) {
		n = len(entries)
	}
	var covered uint64
	for _, e := range entries[:n] {
		cpi := "-"
		if e.Count > 0 {
			cpi = report.Float(float64(e.Cycles) / float64(e.Count))
		}
		t.Add(e.Symbol, fmt.Sprintf("0x%08x", e.Addr), e.Count, e.Cycles, pct(e.Cycles, total), cpi)
		covered += e.Cycles
	}
	if n < len(entries) {
		t.Note = fmt.Sprintf("top %d of %d symbols, covering %s of %d cycles", n, len(entries), pct(covered, total), total)
	}
	return t
}

// ClassTable renders the per-instruction-class cycle breakdown,
// including the exception-entry bucket, whose rows sum exactly to the
// traced cycle and instruction totals.
func (p *Profile) ClassTable() *report.Table {
	tr := p.Trace
	total := p.TotalCycles()
	t := report.New("Profile: cycles by instruction class", "class", "instrs", "cycles", "cycles%", "cpi")
	for cl := armv6m.InstrClass(0); cl < armv6m.NumClasses; cl++ {
		cpi := "-"
		if tr.ClassInstrs[cl] > 0 {
			cpi = report.Float(float64(tr.ClassCycles[cl]) / float64(tr.ClassInstrs[cl]))
		}
		t.Add(cl.String(), tr.ClassInstrs[cl], tr.ClassCycles[cl], pct(tr.ClassCycles[cl], total), cpi)
	}
	if tr.ExceptionEntries > 0 || tr.ExceptionEntryCycles > 0 {
		t.Add("exception entry", tr.ExceptionEntries, tr.ExceptionEntryCycles, pct(tr.ExceptionEntryCycles, total), "-")
	}
	if tr.SleepCycles > 0 {
		t.Add("sleep (WFI)", 0, tr.SleepCycles, pct(tr.SleepCycles, total), "-")
	}
	t.Note = fmt.Sprintf("total: %d instructions, %d cycles, CPI %s; branches %d taken / %d not taken",
		tr.TotalInstructions(), total, report.Float(tr.CPI()), tr.BranchTaken, tr.BranchNotTaken)
	return t
}

// BusTable renders per-region bus traffic and wait-state accounting.
func (p *Profile) BusTable() *report.Table {
	tr := p.Trace
	t := report.New("Profile: bus traffic by region", "region", "accesses", "wait cycles")
	t.Add("flash (fetch+data)", tr.FlashAccesses, tr.FlashWaitCycles)
	t.Add("sram reads", tr.SRAMReads, 0)
	t.Add("sram writes", tr.SRAMWrites, 0)
	return t
}

// WriteFolded emits the profile in folded-stack format ("frames cycles"
// per line), directly consumable by flamegraph.pl / speedscope. Local
// labels appear as a child frame of their kernel root, so the rendered
// flame graph groups loop labels under their kernel.
func (p *Profile) WriteFolded(w io.Writer) error {
	// Aggregate per (root, label) pair for stable two-level stacks.
	type key struct{ root, label string }
	agg := make(map[key]uint64)
	p.Trace.PCs.Each(func(pc uint32, s armv6m.PCSample) {
		sym, ok := p.locate(pc)
		if !ok {
			agg[key{fmt.Sprintf("0x%08x", pc), ""}] += s.Cycles
			return
		}
		if sym.root == sym.name {
			agg[key{sym.name, ""}] += s.Cycles
		} else {
			agg[key{sym.root, sym.name}] += s.Cycles
		}
	})
	keys := make([]key, 0, len(agg))
	for k := range agg { //neurolint:allow maporder (sorted below)
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].root != keys[j].root {
			return keys[i].root < keys[j].root
		}
		return keys[i].label < keys[j].label
	})
	for _, k := range keys {
		stack := k.root
		if k.label != "" {
			stack += ";" + k.label
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", stack, agg[k]); err != nil {
			return err
		}
	}
	return nil
}

// jsonProfile is the JSON export schema (schema "neuroc-profile/v1").
type jsonProfile struct {
	Schema       string         `json:"schema"`
	Cycles       uint64         `json:"cycles"`
	Instructions uint64         `json:"instructions"`
	SleepCycles  uint64         `json:"sleep_cycles,omitempty"`
	CPI          float64        `json:"cpi"`
	Classes      []jsonClass    `json:"classes"`
	Exceptions   jsonExceptions `json:"exceptions"`
	Branches     jsonBranches   `json:"branches"`
	Bus          jsonBus        `json:"bus"`
	Hotspots     []Entry        `json:"hotspots"`
	Kernels      []Entry        `json:"kernels"`
}

type jsonClass struct {
	Class        string `json:"class"`
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

type jsonExceptions struct {
	Entries uint64 `json:"entries"`
	Cycles  uint64 `json:"cycles"`
}

type jsonBranches struct {
	Taken    uint64 `json:"taken"`
	NotTaken uint64 `json:"not_taken"`
}

type jsonBus struct {
	FlashAccesses   uint64 `json:"flash_accesses"`
	FlashWaitCycles uint64 `json:"flash_wait_cycles"`
	SRAMReads       uint64 `json:"sram_reads"`
	SRAMWrites      uint64 `json:"sram_writes"`
}

// WriteJSON emits the full profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	tr := p.Trace
	out := jsonProfile{
		Schema:       "neuroc-profile/v1",
		Cycles:       p.TotalCycles(),
		Instructions: tr.TotalInstructions(),
		SleepCycles:  tr.SleepCycles,
		CPI:          tr.CPI(),
		Exceptions:   jsonExceptions{Entries: tr.ExceptionEntries, Cycles: tr.ExceptionEntryCycles},
		Branches:     jsonBranches{Taken: tr.BranchTaken, NotTaken: tr.BranchNotTaken},
		Bus: jsonBus{
			FlashAccesses:   tr.FlashAccesses,
			FlashWaitCycles: tr.FlashWaitCycles,
			SRAMReads:       tr.SRAMReads,
			SRAMWrites:      tr.SRAMWrites,
		},
		Hotspots: p.Flat,
		Kernels:  p.Kernels,
	}
	for cl := armv6m.InstrClass(0); cl < armv6m.NumClasses; cl++ {
		out.Classes = append(out.Classes, jsonClass{
			Class: cl.String(), Instructions: tr.ClassInstrs[cl], Cycles: tr.ClassCycles[cl],
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
