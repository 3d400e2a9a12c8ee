// Benchmarks, one per paper table/figure, wrapping the same experiment
// runners as cmd/neuroc-bench in quick mode. `go test -bench=. -benchmem`
// therefore regenerates a CI-sized version of the full evaluation;
// `cmd/neuroc-bench -exp all` produces the paper-scale numbers.
package neuroc_test

import (
	"runtime"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/bench"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/thumb"
)

func quickRunner() *bench.Runner {
	return bench.New(bench.Config{Quick: true, Seed: 1})
}

func BenchmarkTable1MCUClasses(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		if tb := r.Table1(); len(tb.Rows) != 3 {
			b.Fatal("table 1 malformed")
		}
	}
}

func BenchmarkFig1AdjacencyStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := quickRunner().Fig1(); len(tb.Rows) == 0 {
			b.Fatal("fig 1 empty")
		}
	}
}

func BenchmarkFig2FCvsCNN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := quickRunner().Fig2(); len(tb.Rows) == 0 {
			b.Fatal("fig 2 empty")
		}
	}
}

func BenchmarkFig3EncodingLayouts(b *testing.B) {
	r := quickRunner()
	for i := 0; i < b.N; i++ {
		if tb := r.Fig3(); len(tb.Rows) != 4 {
			b.Fatal("fig 3 malformed")
		}
	}
}

func BenchmarkFig5Encodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lat, flash := quickRunner().Fig5()
		if len(lat.Rows) == 0 || len(flash.Rows) == 0 {
			b.Fatal("fig 5 empty")
		}
	}
}

func BenchmarkFig6MLPvsNeuroC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := quickRunner().Fig6()
		if len(tables) != 4 {
			b.Fatal("fig 6 should emit 6a-6d")
		}
	}
}

func BenchmarkFig7BestDeployable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := quickRunner().Fig7(); len(tb.Rows) == 0 {
			b.Fatal("fig 7 empty")
		}
	}
}

func BenchmarkFig8TNNAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := quickRunner().Fig8(); len(tb.Rows) == 0 {
			b.Fatal("fig 8 empty")
		}
	}
}

// BenchmarkDeviceInference measures raw emulator throughput: one
// inference of a mid-sized Neuro-C layer per iteration (host-side cost
// of simulating the device, not device latency itself).
func BenchmarkDeviceInference(b *testing.B) {
	r := rng.New(1)
	layer := benchLayer(r, 256, 64, 0.1)
	m := &quant.Model{Layers: []*quant.Layer{layer}, InputScale: 127}
	img, err := modelimg.Build(m, modelimg.UseBlock)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := device.New(img)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]int8, 256)
	for i := range in {
		in[i] = int8(r.Intn(255) - 127)
	}
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := dev.Run(in)
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "device-cycles/op")
}

// BenchmarkHostQuantInference measures the bit-exact host reference for
// the same layer, the fast path used for accuracy evaluation.
func BenchmarkHostQuantInference(b *testing.B) {
	r := rng.New(1)
	layer := benchLayer(r, 256, 64, 0.1)
	m := &quant.Model{Layers: []*quant.Layer{layer}, InputScale: 127}
	in := make([]int8, 256)
	for i := range in {
		in[i] = int8(r.Intn(255) - 127)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Infer(in)
	}
}

// benchLayer builds a random ternary layer for throughput benchmarks.
func benchLayer(r *rng.RNG, in, out int, density float64) *quant.Layer {
	l := &quant.Layer{
		Kind: quant.Ternary, In: in, Out: out,
		PerNeuron: true, PreShift: 0, PostShift: 7,
		Bias: make([]int32, out), Mults: make([]int32, out), ReLU: true,
	}
	a := quantMatrix(r, in, out, density)
	l.A = a
	for o := range l.Mults {
		l.Mults[o] = 100
	}
	return l
}

func quantMatrix(r *rng.RNG, in, out int, density float64) *encoding.Matrix {
	m := encoding.NewMatrix(in, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if r.Bool(density) {
				if r.Bool(0.5) {
					m.Set(o, i, 1)
				} else {
					m.Set(o, i, -1)
				}
			}
		}
	}
	return m
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tables := quickRunner().Ablations(); len(tables) != 3 {
			b.Fatal("ablations malformed")
		}
	}
}

// BenchmarkCheckedRun isolates the per-retire cost of the three ways a
// board runs one MNIST-sized inference: plain Run (fastest tier),
// RunProfiled (traced, per-PC histogram), and certificate-checked Run.
// Per encoding it reports host MIPS and ns per retired instruction, so
// a change to the traced or checked retire path can be read off here
// without the full benchmark.
func BenchmarkCheckedRun(b *testing.B) {
	r := rng.New(3)
	m := mnistBenchModel(r)
	in := make([]int8, 784)
	for i := range in {
		in[i] = int8(r.Intn(255) - 127)
	}
	encs := []struct {
		name string
		enc  modelimg.EncodingChoice
	}{{"block", modelimg.UseBlock}, {"csc", modelimg.UseCSC}, {"unrolled", modelimg.UseUnrolled}}
	for _, e := range encs {
		img, err := modelimg.Build(m, e.enc)
		if err != nil {
			b.Fatal(err)
		}
		fi, err := device.NewFlashImage(img)
		if err != nil {
			b.Fatal(err)
		}
		modes := []struct {
			name    string
			checked bool
			run     func(d *device.Device) (*device.Result, error)
		}{
			{"run", false, func(d *device.Device) (*device.Result, error) { return d.Run(in) }},
			{"profiled", false, func(d *device.Device) (*device.Result, error) { return d.RunProfiled(in) }},
			{"checked", true, func(d *device.Device) (*device.Result, error) { return d.Run(in) }},
		}
		for _, md := range modes {
			b.Run(e.name+"/"+md.name, func(b *testing.B) {
				board := fi.NewBoard()
				board.Checked = md.checked
				var instr uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := md.run(board)
					if err != nil {
						b.Fatal(err)
					}
					instr += res.Instructions
				}
				sec := b.Elapsed().Seconds()
				b.ReportMetric(float64(instr)/1e6/sec, "MIPS")
				b.ReportMetric(sec*1e9/float64(instr), "ns/instr")
			})
		}
	}
}

// mnistBenchModel draws a seeded MNIST-sized Neuro-C model
// (784 -> 128 -> 48 -> 10, ternary) from r.
func mnistBenchModel(r *rng.RNG) *quant.Model {
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{
		benchLayer(r, 784, 128, 0.1),
		benchLayer(r, 128, 48, 0.2),
		benchLayer(r, 48, 10, 0.3),
	}}
	m.Layers[2].ReLU = false
	return m
}

// certifyConfig is the static-check configuration modelimg.Build
// certifies a plain (no telemetry, no ISR) image under.
func certifyConfig(p *thumb.Program) asmcheck.Config {
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = modelimg.StackReserve
	cfg.CodeLimit = p.Symbols["data_start"]
	cfg.Roots = []string{"entry"}
	return cfg
}

// toolchainFixture is the unrolled build of the MNIST-sized bench model
// plus the raw (pre-optimizer) source of its first layer's kernel.
type toolchainFixture struct {
	model    *quant.Model
	img      *modelimg.Image
	rawLayer string
}

func newToolchainFixture(tb testing.TB) *toolchainFixture {
	m := mnistBenchModel(rng.New(3))
	img, err := modelimg.Build(m, modelimg.UseUnrolled)
	if err != nil {
		tb.Fatal(err)
	}
	name := kernels.UnrolledName(0, modelimg.DefaultUnrollFactor)
	raw := kernels.Unrolled(name, m.Layers[0].A, modelimg.DefaultUnrollFactor, armv6m.SRAMBase, armv6m.SRAMBase+0x1000)
	return &toolchainFixture{model: m, img: img, rawLayer: raw}
}

// BenchmarkToolchain times each pass of the image toolchain on the
// MNIST-sized bench model: the peephole optimizer on the unrolled first
// layer, the assembler and the certifier on the whole unrolled image,
// and end-to-end Build for unrolled and auto (whose search builds and
// certifies a one-layer probe per candidate). Each reports ns and
// allocations per instruction of what it processed: the optimized
// kernel for Optimize, the unrolled image otherwise, so the per-pass
// costs add up on one scale.
func BenchmarkToolchain(b *testing.B) {
	fx := newToolchainFixture(b)
	imgInstrs := len(fx.img.Prog.Instrs)
	layerSrc := kernels.Optimize(fx.rawLayer)
	layerProg, err := thumb.Assemble(layerSrc, armv6m.FlashBase)
	if err != nil {
		b.Fatal(err)
	}
	cfg := certifyConfig(fx.img.Prog)
	steps := []struct {
		name   string
		instrs int
		run    func() error
	}{
		{"Optimize", len(layerProg.Instrs), func() error { kernels.Optimize(fx.rawLayer); return nil }},
		{"Assemble", imgInstrs, func() error { _, err := thumb.Assemble(fx.img.Asm, armv6m.FlashBase); return err }},
		{"Certify", imgInstrs, func() error { _, _, err := asmcheck.Certify(fx.img.Prog, cfg); return err }},
		{"Build/unrolled", imgInstrs, func() error { _, err := modelimg.Build(fx.model, modelimg.UseUnrolled); return err }},
		{"Build/auto", imgInstrs, func() error { _, err := modelimg.Build(fx.model, modelimg.UseAuto); return err }},
	}
	for _, st := range steps {
		b.Run(st.name, func(b *testing.B) {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			per := float64(b.N) * float64(st.instrs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/instr")
			b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/per, "allocs/instr")
		})
	}
}

// TestToolchainAllocCeiling bounds the allocations of assembling and
// certifying the MNIST-sized unrolled image, per instruction. Assembly
// allocates a fixed handful of slabs (about 0.003 per instruction);
// certification allocates one disassembly string per instruction for
// the certificate plus per-block and per-function records (about 1.02).
// The ceilings leave headroom over those, and sit far below the 5.7 and
// 4.4 allocations per instruction of the map- and regexp-based passes.
func TestToolchainAllocCeiling(t *testing.T) {
	fx := newToolchainFixture(t)
	n := float64(len(fx.img.Prog.Instrs))
	cfg := certifyConfig(fx.img.Prog)
	for _, c := range []struct {
		name    string
		ceiling float64 // allocations per instruction
		run     func()
	}{
		{"Assemble", 0.01, func() { _, _ = thumb.Assemble(fx.img.Asm, armv6m.FlashBase) }},
		{"Certify", 1.1, func() { _, _, _ = asmcheck.Certify(fx.img.Prog, cfg) }},
	} {
		if got := testing.AllocsPerRun(2, c.run) / n; got > c.ceiling {
			t.Errorf("%s: %.4f allocations per instruction, ceiling %.2f", c.name, got, c.ceiling)
		}
	}
}
