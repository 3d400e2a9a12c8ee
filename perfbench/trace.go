package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one operation share an op
// id; phase roots ("setup", "timed", "probe") have parent -1.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. Every call is made
// from the benchmark's single driving goroutine, so an explicit stack
// gives each span its parent. A nil tracer records nothing: the
// untraced run, which every end-to-end metric comes from.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op int) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, StartNS: time.Since(t.epoch).Nanoseconds()})
	t.stack = append(t.stack, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may nest or overlap one another;
// the covered part is the union of their intervals, clipped to the
// parent, so no nanosecond is subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredNS(s, children[s.ID])
	}
	return self
}

// coveredNS is the length of the union of the children's intervals
// inside the parent's interval.
func coveredNS(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// layerOf maps a span name ("modelimg.Build") to the repository layer
// its module belongs to.
func layerOf(name string) string {
	mod, _, _ := strings.Cut(name, ".")
	switch mod {
	case "nn", "ternary", "tensor":
		return "training"
	case "kernels", "thumb", "asmcheck", "cert", "modelimg":
		return "toolchain"
	case "device", "armv6m":
		return "emulator"
	}
	return mod
}

// phaseBreakdown is the where-the-time-goes table of one phase root:
// self time per layer, plus the root's own self time (the benchmark's
// glue between calls, the uncovered share).
type phaseBreakdown struct {
	Phase     string
	WallNS    int64
	LayerNS   map[string]int64
	Uncovered int64
}

// breakdown groups self times under each phase root. Self times of a
// phase's descendants plus the root's own self time add up to the
// root's wall exactly.
func breakdown(spans []span) []phaseBreakdown {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	var out []phaseBreakdown
	idx := map[int]int{}
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			idx[i] = len(out)
			out = append(out, phaseBreakdown{Phase: s.Name, WallNS: s.dur(), LayerNS: map[string]int64{}, Uncovered: self[i]})
			continue
		}
		rootOf[i] = rootOf[s.Parent] // parents precede children
		out[idx[rootOf[i]]].LayerNS[layerOf(s.Name)] += self[i]
	}
	return out
}

// writeBreakdown prints the where-the-time-goes tables, one per phase.
// overheadPct is the traced timed phase's wall relative to the untraced
// one of the same process.
func writeBreakdown(w io.Writer, workload string, phases []phaseBreakdown, overheadPct float64) {
	for _, p := range phases {
		if len(p.LayerNS) == 0 {
			continue
		}
		fmt.Fprintf(w, "where the time goes: %s / %s (wall %.3f s)\n", workload, p.Phase, float64(p.WallNS)/1e9)
		tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "layer\tself s\tshare\t")
		layers := make([]string, 0, len(p.LayerNS))
		for l := range p.LayerNS {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return p.LayerNS[layers[i]] > p.LayerNS[layers[j]] })
		for _, l := range layers {
			fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\t\n", l, float64(p.LayerNS[l])/1e9, share(p.LayerNS[l], p.WallNS)*100)
		}
		fmt.Fprintf(tw, "(uncovered)\t%.3f\t%.1f%%\t\n", float64(p.Uncovered)/1e9, share(p.Uncovered, p.WallNS)*100)
		tw.Flush()
	}
	fmt.Fprintf(w, "tracing overhead on the timed phase: %+.2f%% of the untraced wall\n", overheadPct)
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// writeSpans stores the spans as JSON at the end of a traced run.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
