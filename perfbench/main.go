// Command perfbench is the repository benchmark: it runs one named
// workload of the Neuro-C pipeline in a single process, checks every
// output against the host quantized reference, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload fleet-mnist --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the same workload runs once untraced and once
// traced; the traced run gives the per-layer metrics, a where-the-time-
// goes table, and a span file under .bench_build/. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the farm pool size: one emulated board per host core of
// the 2-core reference machine. Each worker takes its next input only
// when the previous one finished (a closed loop), so at most two
// inferences are in flight.
const workers = 2

// outDir holds what a run leaves behind (span files), relative to the
// checkout root the benchmark runs from.
const outDir = ".bench_build"

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a user of the pipeline sees. Every
// workload reports all of them; README.md gives each one's meaning per
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"infer_per_s", "1/s"},
	{"infer_p50_us", "us"},
	{"infer_p90_us", "us"},
	{"host_mips", "MIPS"},
	{"candidates_per_min", "1/min"},
	{"deploys_per_s", "1/s"},
	{"deploy_p50_ms", "ms"},
	{"device_cycles_mean", "cycles"},
	{"flash_bytes", "bytes"},
	{"accuracy_device", "ratio"},
	{"peak_rss_mb", "MB"},
}

var (
	encNames  = []string{"block", "csc", "delta", "mixed", "unrolled", "auto"}
	fleetEncs = encNames[:5]
)

// perLayer lists the traced run's metrics of single layers. A layer a
// workload does not run reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"dataset.generate_s", "s"},
		{"nn.train_s", "s"},
		{"nn.train_samples_per_s", "1/s"},
		{"quant.from_network_ms", "ms"},
		{"quant.ref_infer_per_s", "1/s"},
		{"quant.load_ms", "ms"},
	}
	each := func(encs []string, name, unit string) {
		for _, e := range encs {
			m = append(m, metricDef{name + "." + e, unit})
		}
	}
	each(encNames, "modelimg.build_ms", "ms")
	each(encNames, "modelimg.flash_bytes", "bytes")
	each(encNames, "thumb.assemble_ms", "ms")
	each(encNames, "asmcheck.certify_ms", "ms")
	each(encNames, "device.predecode_ms", "ms")
	each(encNames, "device.translate_ms", "ms")
	each(encNames, "cert.checked_run_ms", "ms")
	each(encNames, "armv6m.host_mips", "MIPS")
	each(encNames, "armv6m.instructions", "count")
	each(encNames, "device.cycles", "cycles")
	each(fleetEncs, "farm.infer_per_s", "1/s")
	each(fleetEncs, "farm.busy_ratio", "ratio")
	each(fleetEncs, "farm.cpi", "cycles/instr")
	each(encNames, "telemetry.measure_layers_ms", "ms")
	for i := 0; i < deployLayers; i++ {
		each(encNames, fmt.Sprintf("telemetry.layer%d.cycles", i), "cycles")
	}
	return append(m,
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.uncovered_share", "ratio"},
	)
}

// workload is one named set of inputs. setup builds what the timed
// phase needs and is repeated (setupReps) so its time is a median;
// timed runs for the run's budget and returns the end-to-end metrics;
// probe runs extra per-layer checks in the traced run only.
type workload interface {
	setupReps() int
	setup(r *run) error
	timed(r *run) (map[string]float64, int, error)
	probe(r *run) error
}

var workloads = map[string]func() workload{
	"fleet-mnist":  func() workload { return &fleet{} },
	"deploy-mnist": func() workload { return &deploy{} },
}

// run is the state of one benchmark invocation.
type run struct {
	seed   uint64
	budget time.Duration
	tr     *tracer

	attempted, failed int
	failures          []string

	// latencySamples is the fewest per-inference timings that one of
	// the percentiles behind infer_p50_us and infer_p90_us rests on:
	// those of one board in one pass, or of the whole run, as
	// latencyScope says.
	latencySamples int
	latencyScope   string
	// notes are extra lines for the summary.
	notes []string

	// samples collects per-layer measurements; each per-layer metric is
	// the median of its samples.
	samples map[string][]float64
	// exact remembers each deterministic value the first time it is
	// seen, so every repetition can be checked against it.
	exact map[string]float64
}

// call times f as one call into a layer and records it as a span of
// operation op when tracing.
func (r *run) call(name string, op int, f func()) time.Duration {
	r.tr.begin(name, op)
	start := time.Now()
	f()
	d := time.Since(start)
	r.tr.end()
	return d
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *run) sample(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// check counts one verified operation and records it as failed unless
// ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// same checks that a deterministic value repeats exactly across the
// benchmark's own repetitions.
func (r *run) same(key string, v float64) {
	if first, ok := r.exact[key]; ok {
		r.check(first == v, "%s: %v differs from the first repetition's %v", key, v, first)
		return
	}
	r.exact[key] = v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-mnist or deploy-mnist")
	seed := flag.Uint64("seed", 1, "workload seed: picks model init seeds and test rows")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// GOMAXPROCS never exceeds the host's cores.
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))

	r := &run{
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		samples: map[string][]float64{},
		exact:   map[string]float64{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	res, err := execute(r, *name, mk())
	if err != nil {
		r.check(false, "%v", err)
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	res.Attempted, res.Failed = max(r.attempted, 1), r.failed
	if r.attempted == 0 {
		res.Failed = 1
	}
	printSummary(*name, res, r)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// execute runs setup, the timed phase and, when tracing, the probe.
func execute(r *run, name string, w workload) (*result, error) {
	res := &result{Metrics: map[string]metricOut{}}
	var setupS []float64
	for rep := 0; rep < w.setupReps(); rep++ {
		var err error
		setupS = append(setupS, r.call("setup", -1, func() { err = w.setup(r) }).Seconds())
		if err != nil {
			return res, fmt.Errorf("setup: %w", err)
		}
	}
	if r.tr == nil {
		var e2e map[string]float64
		var err error
		r.call("timed", -1, func() { e2e, _, err = w.timed(r) })
		if err != nil {
			return res, fmt.Errorf("timed: %w", err)
		}
		e2e["setup_s"] = median(setupS)
		e2e["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricOut{e2e[m.name], m.unit}
		}
		return res, nil
	}

	// Traced: the same timed phase first untraced, then traced; the
	// per-unit wall difference is the tracing overhead.
	tr, kept := r.tr, r.samples
	r.tr, r.samples = nil, map[string][]float64{}
	var untracedUnits, tracedUnits int
	var err error
	untraced := r.call("timed", -1, func() { _, untracedUnits, err = w.timed(r) })
	if err != nil {
		return res, fmt.Errorf("timed (untraced): %w", err)
	}
	r.tr, r.samples, r.notes = tr, kept, nil
	traced := r.call("timed", -1, func() { _, tracedUnits, err = w.timed(r) })
	if err != nil {
		return res, fmt.Errorf("timed: %w", err)
	}
	overhead := (traced.Seconds()/float64(tracedUnits))/(untraced.Seconds()/float64(untracedUnits))*100 - 100
	r.sample("trace.overhead_pct", overhead)
	phases := breakdown(r.tr.spans)
	for _, p := range phases {
		if p.Phase == "timed" {
			r.sample("trace.uncovered_share", share(p.Uncovered, p.WallNS))
		}
	}
	r.call("probe", -1, func() { err = w.probe(r) })
	if err != nil {
		return res, fmt.Errorf("probe: %w", err)
	}
	writeBreakdown(os.Stdout, name, mergePhases(breakdown(r.tr.spans)), overhead)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", name, r.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	if err := writeSpans(path, r.tr.spans); err != nil {
		return res, err
	}
	fmt.Printf("spans: %s (%d)\n", path, len(r.tr.spans))
	for _, m := range perLayer {
		res.Metrics[m.name] = metricOut{median(r.samples[m.name]), m.unit}
	}
	return res, nil
}

// mergePhases folds repeated phase roots (the setup repetitions) into
// one row set per phase name, in first-seen order.
func mergePhases(phases []phaseBreakdown) []phaseBreakdown {
	var out []phaseBreakdown
	idx := map[string]int{}
	for _, p := range phases {
		i, ok := idx[p.Phase]
		if !ok {
			idx[p.Phase] = len(out)
			out = append(out, phaseBreakdown{Phase: p.Phase, LayerNS: map[string]int64{}})
			i = len(out) - 1
		}
		o := &out[i]
		o.WallNS += p.WallNS
		o.Uncovered += p.Uncovered
		for l, ns := range p.LayerNS {
			o.LayerNS[l] += ns
		}
	}
	return out
}

func printSummary(name string, res *result, r *run) {
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed (failed_ratio %.6f)\n",
		name, r.seed, r.attempted, r.failed, failedRatio(r.failed, r.attempted))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if q := tailQuantile(r.latencySamples); q > 0 {
		fmt.Printf("per-inference timings: at least %d per %s; p%g is the highest percentile with at least 10 beyond it\n",
			r.latencySamples, r.latencyScope, q*100)
	} else if r.latencySamples > 0 {
		fmt.Printf("per-inference timings: at least %d per %s; no percentile has 10 beyond it\n",
			r.latencySamples, r.latencyScope)
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-36s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
