package main

import (
	"github.com/neuro-c/neuroc"
	"github.com/neuro-c/neuroc/internal/dataset"
	"github.com/neuro-c/neuroc/internal/rng"
	"github.com/neuro-c/neuroc/internal/tensor"
)

// mnist generates the MNIST stand-in at a benchmark size. The dataset
// itself is fixed; the workload seed only picks rows and init seeds.
func mnist(train, test int) *dataset.Dataset {
	cfg := dataset.MNIST()
	cfg.Train, cfg.Test = train, test
	return dataset.Generate(cfg)
}

// seedStream derives the workload's random stream for one purpose, so
// row choice and model init never share draws.
func seedStream(seed uint64, purpose uint64) *rng.RNG {
	return rng.New(seed*0x9E3779B97F4A7C15 + purpose)
}

// seededTest returns ds with its test split replaced by n test rows
// chosen by seed: the only inputs the program sees.
func seededTest(ds *dataset.Dataset, seed uint64, n int) *dataset.Dataset {
	rows := seedStream(seed, 1).Perm(ds.TestX.Rows)[:n]
	out := *ds
	out.TestX = tensor.NewMat(n, ds.TestX.Cols)
	out.TestY = make([]int, n)
	for i, row := range rows {
		copy(out.TestX.Row(i), ds.TestX.Row(row))
		out.TestY[i] = ds.TestY[row]
	}
	return &out
}

// rowsView returns ds with its test split narrowed to rows [lo, hi).
func rowsView(ds *dataset.Dataset, lo, hi int) *dataset.Dataset {
	out := *ds
	cols := ds.TestX.Cols
	out.TestX = tensor.FromSlice(hi-lo, cols, ds.TestX.Data[lo*cols:hi*cols])
	out.TestY = ds.TestY[lo:hi]
	return &out
}

// calibRows is the training prefix quantization calibrates on, the same
// prefix neuroc.Model.Deploy uses.
func calibRows(ds *dataset.Dataset) *tensor.Mat {
	n := min(512, ds.TrainX.Rows)
	return tensor.FromSlice(n, ds.TrainX.Cols, ds.TrainX.Data[:n*ds.TrainX.Cols])
}

// neurocSpec is a Neuro-C model with learned adjacency; sparsity is the
// ternarization-threshold factor (larger prunes more).
func neurocSpec(ds *dataset.Dataset, hidden []int, sparsity float64, seed uint64) neuroc.ModelSpec {
	return neuroc.ModelSpec{
		InputDim: ds.Dim(), NumClasses: ds.NumClasses,
		Hidden: hidden, Arch: neuroc.ArchNeuroC,
		Strategy: neuroc.StrategyLearned, Sparsity: sparsity,
		Seed: seed,
	}
}

// trainLR is a higher Adam rate than the library default, which suits
// the benchmark's short training budgets.
const trainLR = 5e-3

// train builds and trains a model, recording the training layer's
// per-layer samples.
func (r *run) train(ds *dataset.Dataset, spec neuroc.ModelSpec, epochs, op int) *neuroc.Model {
	var m *neuroc.Model
	d := r.call("nn.Train", op, func() {
		m = neuroc.NewModel(spec)
		m.Train(ds, neuroc.TrainOptions{Epochs: epochs, LR: trainLR})
	})
	r.sample("nn.train_s", d.Seconds())
	r.sample("nn.train_samples_per_s", ratePer(float64(epochs*ds.TrainX.Rows), d.Seconds()))
	return m
}

func (r *run) generate(train, test int) *dataset.Dataset {
	var ds *dataset.Dataset
	d := r.call("dataset.Generate", -1, func() { ds = mnist(train, test) })
	r.sample("dataset.generate_s", d.Seconds())
	return ds
}
