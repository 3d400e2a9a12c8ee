package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/telemetry"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// deploy-mnist: the m0run -model ... -checked -layers path. Each saved
// NCQ1 model is loaded and deployed in every encoding choice: build,
// flash image (predecode + translate), certificate-checked runs, and
// the telemetry twin's per-layer cycles. Time goes to the image
// toolchain and the twin rebuilds, and the emulator runs the checked
// (tracing) path rather than the fast tiers.
const (
	deployTrain, deployTest = 2000, 1000
	deployRows              = 16 // checked runs per deployment, on rows of its own
	deployTwinRuns          = 2  // telemetry-twin inferences per deployment
	deployEpochs            = 2
	deployLayers            = 3 // both models have two hidden layers
)

var deployModels = []struct {
	hidden   []int
	sparsity float64
}{
	{[]int{128, 48}, 1.8},
	{[]int{96, 32}, 1.4},
}

type deploy struct {
	blobs [][]byte
	tests []*dataset.Dataset // per encoding: the rows its checked runs use
	imgs  []*modelimg.Image  // the first timed pass's images, for the probe
}

func (p *deploy) setupReps() int { return 3 }

func (p *deploy) setup(r *run) error {
	ds := r.generate(deployTrain, deployTest)
	test := seededTest(ds, r.seed, len(encNames)*deployRows)
	p.tests = nil
	for e := range encNames {
		p.tests = append(p.tests, rowsView(test, e*deployRows, (e+1)*deployRows))
	}
	p.blobs = nil
	for k, mdl := range deployModels {
		m := r.train(ds, neurocSpec(ds, mdl.hidden, mdl.sparsity, seedStream(r.seed, 20+uint64(k)).Uint64()), deployEpochs, -1)
		var qm *quant.Model
		var err error
		d := r.call("quant.FromNetwork", -1, func() { qm, err = quant.FromNetwork(m.Net, calibRows(ds), 0) })
		if err != nil {
			return fmt.Errorf("quantize: %w", err)
		}
		r.sample("quant.from_network_ms", ms(d))
		var buf bytes.Buffer
		r.call("quant.Save", -1, func() { err = qm.Save(&buf) })
		if err != nil {
			return fmt.Errorf("save: %w", err)
		}
		p.blobs = append(p.blobs, buf.Bytes())
	}
	return nil
}

// timed deploys every (model, encoding) pair, pass after pass, until
// the budget is spent. A pass takes several seconds, so a run holds only
// a few: rates and checked-run latency percentiles are taken over all
// passes together.
func (p *deploy) timed(r *run) (map[string]float64, int, error) {
	var deployMS []float64
	lat := newPassLatency(1) // checked runs go one at a time
	var runS, instr, n float64
	var cycles, flash, runs, correct float64
	p.imgs = nil
	start := time.Now()
	pass := 0
	for ; pass == 0 || time.Since(start) < r.budget; pass++ {
		for k, blob := range p.blobs {
			for e, name := range encNames {
				op := (pass*len(p.blobs)+k)*len(encNames) + e
				st, err := p.deployOne(r, blob, name, p.tests[e], op, pass == 0)
				if err != nil {
					r.check(false, "deploy model %d %s: %v", k, name, err)
					continue
				}
				deployMS = append(deployMS, st.wallMS)
				for _, ns := range st.runNS {
					lat.add(0, ns)
					runS += float64(ns) / 1e9
				}
				instr += st.instructions
				n += float64(len(st.runNS))
				key := fmt.Sprintf("deploy.%d.%s.", k, name)
				r.same(key+"cycles", st.cycles)
				r.same(key+"flash", st.flash)
				if pass == 0 {
					cycles += st.cycles * float64(len(st.runNS))
					runs += float64(len(st.runNS))
					correct += st.correct
					flash += st.flash
				}
			}
		}
	}
	wall := time.Since(start).Seconds()
	deploys := ratePer(float64(pass*len(p.blobs)*len(encNames)), wall)
	lat.endPass()
	r.latencySamples, r.latencyScope = lat.fewest, "run"
	return map[string]float64{
		"infer_per_s":        ratePer(n, runS),
		"infer_p50_us":       lat.p50[0],
		"infer_p90_us":       lat.p90[0],
		"host_mips":          ratePer(instr/1e6, runS),
		"candidates_per_min": deploys * 60,
		"deploys_per_s":      deploys,
		"deploy_p50_ms":      median(deployMS),
		"device_cycles_mean": cycles / runs,
		"flash_bytes":        flash,
		"accuracy_device":    correct / runs,
	}, pass, nil
}

// deployed summarizes one verified deployment.
type deployed struct {
	wallMS       float64
	runNS        []int64
	instructions float64
	cycles       float64 // per checked run (input-independent)
	flash        float64
	correct      float64
}

// deployOne takes one NCQ1 model to a loaded, checked board: load,
// build, flash image, checked runs on the seeded rows (each output
// byte-compared to the host reference), then the telemetry twin, whose
// marker-corrected layer cycles must equal the uninstrumented checked
// run's layer cycles exactly.
func (p *deploy) deployOne(r *run, blob []byte, name string, test *dataset.Dataset, op int, keep bool) (*deployed, error) {
	start := time.Now()
	var qm *quant.Model
	var err error
	d := r.call("quant.Load", op, func() { qm, err = quant.Load(bytes.NewReader(blob)) })
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	r.sample("quant.load_ms", ms(d))
	inputs := make([][]int8, deployRows)
	refs := make([][]int8, deployRows)
	r.call("quant.Infer", op, func() {
		for i := range inputs {
			inputs[i] = qm.QuantizeInput(test.TestX.Row(i))
			refs[i] = qm.Infer(inputs[i])
		}
	})

	enc, err := modelimg.ParseEncoding(name)
	if err != nil {
		return nil, err
	}
	var img *modelimg.Image
	d = r.call("modelimg.Build", op, func() { img, err = modelimg.Build(qm, enc) })
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	r.sample("modelimg.build_ms."+name, ms(d))
	r.sample("modelimg.flash_bytes."+name, float64(img.TotalBytes()))
	if keep {
		p.imgs = append(p.imgs, img)
	}
	var fi *device.FlashImage
	r.call("device.NewFlashImage", op, func() { fi, err = device.NewFlashImage(img) })
	if err != nil {
		return nil, fmt.Errorf("flash image: %w", err)
	}
	r.sample("device.predecode_ms."+name, ms(fi.Table.BuildTime()))
	r.sample("device.translate_ms."+name, ms(fi.TransBuild))

	out := &deployed{flash: float64(img.TotalBytes())}
	board := fi.NewBoard()
	board.Checked = true
	for i, in := range inputs {
		var res *device.Result
		d := r.call("device.RunChecked", op, func() { res, err = board.Run(in) })
		if err != nil {
			return nil, fmt.Errorf("checked run %d: %w", i, err)
		}
		if !slices.Equal(res.Output, refs[i]) {
			return nil, fmt.Errorf("checked run %d: device output %v differs from reference %v", i, res.Output, refs[i])
		}
		r.check(true, "")
		r.sample("cert.checked_run_ms."+name, ms(d))
		r.sample("armv6m.host_mips."+name, ratePer(float64(res.Instructions)/1e6, d.Seconds()))
		r.sample("armv6m.instructions."+name, float64(res.Instructions))
		r.sample("device.cycles."+name, float64(res.Cycles))
		out.runNS = append(out.runNS, d.Nanoseconds())
		out.instructions += float64(res.Instructions)
		out.cycles = float64(res.Cycles)
		if argmax(res.Output) == test.TestY[i] {
			out.correct++
		}
	}

	// One more checked run, segmented at the image's layer labels: the
	// uninstrumented per-layer cycles the telemetry twin must reproduce.
	var layers []telemetry.Span
	var res *device.Result
	r.call("telemetry.HostLayerSpans", op, func() { layers, res, err = telemetry.HostLayerSpans(board, inputs[0]) })
	if err != nil {
		return nil, fmt.Errorf("segmented checked run: %w", err)
	}
	if !slices.Equal(res.Output, refs[0]) || float64(res.Cycles) != out.cycles {
		return nil, fmt.Errorf("segmented checked run: output %v, %d cycles; plain checked run %v, %v cycles", res.Output, res.Cycles, refs[0], out.cycles)
	}

	dep := &neuroc.Deployment{QModel: qm, Img: img, Dev: board, Encoding: enc, Workers: workers}
	var stats []telemetry.LayerStats
	d = r.call("telemetry.MeasureLayers", op, func() { stats, err = dep.MeasureLayers(test, deployTwinRuns) })
	if err != nil {
		return nil, fmt.Errorf("measure layers: %w", err)
	}
	r.sample("telemetry.measure_layers_ms."+name, ms(d))
	if len(stats) != len(layers) {
		return nil, fmt.Errorf("telemetry twin has %d layers, image %d", len(stats), len(layers))
	}
	for i, st := range stats {
		if st.Min != layers[i].Cycles || st.Max != layers[i].Cycles {
			return nil, fmt.Errorf("layer %d: twin cycles %d..%d, checked run %d", i, st.Min, st.Max, layers[i].Cycles)
		}
		r.sample(fmt.Sprintf("telemetry.layer%d.cycles.%s", i, name), float64(st.Min))
	}
	r.check(true, "")
	out.wallMS = ms(time.Since(start))
	return out, nil
}

// probe times the toolchain's two passes on each built image's own
// source and program: re-assembly, which must reproduce the image
// bytes, and certification, which must pass with the build's settings.
func (p *deploy) probe(r *run) error {
	for i, img := range p.imgs {
		name := encNames[i%len(encNames)]
		var prog *thumb.Program
		var err error
		d := r.call("thumb.Assemble", i, func() { prog, err = thumb.Assemble(img.Asm, armv6m.FlashBase) })
		r.check(err == nil && bytes.Equal(prog.Code, img.Prog.Code), "deploy %s: re-assembly differs from the image (err %v)", name, err)
		r.sample("thumb.assemble_ms."+name, ms(d))

		cfg := asmcheck.DefaultConfig()
		cfg.Strict = true
		cfg.StackBudget = modelimg.StackReserve
		cfg.CodeLimit = img.Prog.Symbols["data_start"]
		cfg.Roots = []string{"entry"}
		d = r.call("asmcheck.Certify", i, func() { _, _, err = asmcheck.Certify(img.Prog, cfg) })
		r.check(err == nil, "deploy %s: certification failed: %v", name, err)
		r.sample("asmcheck.certify_ms."+name, ms(d))
	}
	return nil
}
