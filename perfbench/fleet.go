package main

import (
	"fmt"
	"slices"
	"time"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/farm"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
)

// fleet-mnist: one trained [128,48] Neuro-C model deployed in the five
// concrete encodings, evaluated on the board farm over the seeded test
// rows. Host time goes to the emulator tiers and the farm; training,
// quantization and the builds run only in setup. The encodings have
// different inner loops, so an execution-tier change shows per
// encoding, and MNIST-sized inferences (~55k-170k device cycles) keep
// per-item farm overhead small.
const (
	fleetTrain, fleetTest = 2000, 1000
	fleetRows             = 512
	fleetEpochs           = 2
	fleetSlice            = 32 // inputs re-run on the predecoded tier
)

type fleet struct {
	imgs   []*modelimg.Image
	inputs [][]int8
	labels []int
	ref    [][]int8
	pass0  [][]farm.Result
}

func (f *fleet) setupReps() int { return 3 }

func (f *fleet) setup(r *run) error {
	ds := r.generate(fleetTrain, fleetTest)
	m := r.train(ds, neurocSpec(ds, []int{128, 48}, 1.8, seedStream(r.seed, 2).Uint64()), fleetEpochs, -1)
	var qm *quant.Model
	var err error
	d := r.call("quant.FromNetwork", -1, func() { qm, err = quant.FromNetwork(m.Net, calibRows(ds), 0) })
	if err != nil {
		return fmt.Errorf("quantize: %w", err)
	}
	r.sample("quant.from_network_ms", ms(d))

	f.imgs = nil
	for k, name := range fleetEncs {
		enc, _ := modelimg.ParseEncoding(name)
		var img *modelimg.Image
		d := r.call("modelimg.Build", k, func() { img, err = modelimg.Build(qm, enc) })
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		r.sample("modelimg.build_ms."+name, ms(d))
		r.sample("modelimg.flash_bytes."+name, float64(img.TotalBytes()))
		r.same("fleet.flash_bytes."+name, float64(img.TotalBytes()))
		f.imgs = append(f.imgs, img)
	}

	test := seededTest(ds, r.seed, fleetRows)
	f.inputs, f.labels, f.ref = make([][]int8, fleetRows), test.TestY, make([][]int8, fleetRows)
	d = r.call("quant.Infer", -1, func() {
		for i := range f.inputs {
			f.inputs[i] = qm.QuantizeInput(test.TestX.Row(i))
			f.ref[i] = qm.Infer(f.inputs[i])
		}
	})
	r.sample("quant.ref_infer_per_s", ratePer(fleetRows, d.Seconds()))
	for i, out := range f.ref {
		r.same(fmt.Sprintf("fleet.ref.%d", i), float64(argmax(out)))
	}
	return nil
}

// timed maps the seeded rows over every image, pass after pass, until
// the budget is spent. Rates are medians over passes. Each farm.Map
// call loads its image afresh (flash array, predecode and translation
// tables): that load is this workload's deployment.
func (f *fleet) timed(r *run) (map[string]float64, int, error) {
	var passInfer, passMIPS, passCand, loadMS []float64
	lat := newPassLatency(workers)
	var cycles, items, correct uint64
	f.pass0 = nil
	start := time.Now()
	pass := 0
	for ; pass == 0 || time.Since(start) < r.budget; pass++ {
		passStart := time.Now()
		var wall time.Duration
		var n, instr uint64
		for k, img := range f.imgs {
			name := fleetEncs[k]
			var res []farm.Result
			var st *farm.Stats
			var err error
			d := r.call("farm.Map", pass*len(f.imgs)+k, func() {
				res, st, err = farm.Map(img, f.inputs, farm.Options{Workers: workers})
			})
			if st == nil {
				return nil, 0, fmt.Errorf("farm.Map %s: %w", name, err)
			}
			var busy int64
			for i := range res {
				r.check(res[i].Err == nil && slices.Equal(res[i].Output, f.ref[i]),
					"fleet %s input %d: device output %v (err %v) differs from reference %v", name, i, res[i].Output, res[i].Err, f.ref[i])
				lat.add(res[i].Worker, res[i].HostDurNS)
				busy += res[i].HostDurNS
			}
			wall += d
			n += uint64(st.Items - st.Failed)
			instr += st.Instructions
			r.same("fleet.cycles."+name, float64(st.TotalCycles))
			r.same("fleet.instructions."+name, float64(st.Instructions))
			r.sample("farm.infer_per_s."+name, ratePer(float64(st.Items-st.Failed), d.Seconds()))
			r.sample("farm.busy_ratio."+name, float64(busy)/(float64(d.Nanoseconds())*workers))
			r.sample("armv6m.host_mips."+name, ratePer(float64(st.Instructions)/1e6, d.Seconds()))
			r.sample("armv6m.instructions."+name, float64(st.Instructions)/float64(st.Items))
			r.sample("device.cycles."+name, float64(st.TotalCycles)/float64(st.Items))
			r.sample("farm.cpi."+name, float64(st.TotalCycles)/float64(st.Instructions))
			r.sample("device.predecode_ms."+name, ms(st.PredecodeBuild))
			r.sample("device.translate_ms."+name, ms(st.TranslateBuild))
			loadMS = append(loadMS, ms(st.PredecodeBuild+st.TranslateBuild))
			if pass == 0 {
				r.note("fleet %-8s %9.1f instructions/inference  cpi %.4f  (farm.Stats)",
					name, float64(st.Instructions)/float64(st.Items), float64(st.TotalCycles)/float64(st.Instructions))
				f.pass0 = append(f.pass0, res)
				cycles += st.TotalCycles
				items += uint64(st.Items)
				for i := range res {
					if res[i].Argmax() == f.labels[i] {
						correct++
					}
				}
			}
		}
		passInfer = append(passInfer, ratePer(float64(n), wall.Seconds()))
		passMIPS = append(passMIPS, ratePer(float64(instr)/1e6, wall.Seconds()))
		passCand = append(passCand, ratePer(float64(len(f.imgs)), time.Since(passStart).Minutes()))
		lat.endPass()
	}
	r.latencySamples, r.latencyScope = lat.fewest, "board and pass"
	r.note("fleet per-inference host wall p99 %.1f µs (per board and pass, median over passes)", median(lat.p99))
	flash := 0
	for _, img := range f.imgs {
		flash += img.TotalBytes()
	}
	var loadS float64
	for _, l := range loadMS {
		loadS += l / 1e3
	}
	return map[string]float64{
		"infer_per_s":        median(passInfer),
		"infer_p50_us":       median(lat.p50),
		"infer_p90_us":       median(lat.p90),
		"host_mips":          median(passMIPS),
		"candidates_per_min": median(passCand),
		"deploys_per_s":      ratePer(float64(len(loadMS)), loadS),
		"deploy_p50_ms":      median(loadMS),
		"device_cycles_mean": float64(cycles) / float64(items),
		"flash_bytes":        float64(flash),
		"accuracy_device":    float64(correct) / float64(items),
	}, pass, nil
}

// probe re-runs a slice of the inputs pinned to the predecoded tier:
// outputs, cycles and instructions must equal tier auto's exactly.
func (f *fleet) probe(r *run) error {
	for k, img := range f.imgs {
		name := fleetEncs[k]
		var res []farm.Result
		var err error
		r.call("farm.Map", -1, func() {
			res, _, err = farm.Map(img, f.inputs[:fleetSlice], farm.Options{Workers: workers, Tier: device.TierPredecoded})
		})
		if err != nil {
			return fmt.Errorf("predecoded tier %s: %w", name, err)
		}
		for i := range res {
			a := f.pass0[k][i]
			r.check(slices.Equal(res[i].Output, a.Output) && res[i].Cycles == a.Cycles && res[i].Instructions == a.Instructions,
				"fleet %s input %d: predecoded tier (out %v, %d cycles, %d instr) differs from tier auto (out %v, %d cycles, %d instr)",
				name, i, res[i].Output, res[i].Cycles, res[i].Instructions, a.Output, a.Cycles, a.Instructions)
		}
	}
	return nil
}

func argmax(out []int8) int {
	best := 0
	for i, v := range out {
		if v > out[best] {
			best = i
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
