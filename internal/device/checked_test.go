package device_test

import (
	"reflect"
	"testing"

	"github.com/neuro-c/neuroc/internal/device"
	"github.com/neuro-c/neuroc/internal/encoding"
	"github.com/neuro-c/neuroc/internal/modelimg"
	"github.com/neuro-c/neuroc/internal/quant"
	"github.com/neuro-c/neuroc/internal/rng"
)

// mnistUnrolledImage builds an MNIST-sized (784 -> 128 -> 10) model in
// the unrolled encoding: tens of thousands of straight-line retires,
// each at its own PC, the shape that made a per-retire or per-PC cost
// visible.
func mnistUnrolledImage(t testing.TB) *modelimg.Image {
	t.Helper()
	r := rng.New(11)
	layer := func(in, out int, relu bool) *quant.Layer {
		a := encoding.NewMatrix(in, out)
		for o := 0; o < out; o++ {
			for i := 0; i < in; i++ {
				if r.Bool(0.08) {
					a.Set(o, i, int8(1-2*r.Intn(2)))
				}
			}
		}
		l := &quant.Layer{
			Kind: quant.Ternary, In: in, Out: out, A: a,
			PerNeuron: true, ReLU: relu, PostShift: 7,
			Bias: make([]int32, out), Mults: make([]int32, out),
		}
		for o := range l.Mults {
			l.Mults[o] = int32(r.Intn(100)) + 60
		}
		return l
	}
	m := &quant.Model{InputScale: 127, Layers: []*quant.Layer{layer(784, 128, true), layer(128, 10, false)}}
	img, err := modelimg.Build(m, modelimg.UseUnrolled)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func seededInput(dim int, seed uint64) []int8 {
	r := rng.New(seed)
	in := make([]int8, dim)
	for i := range in {
		in[i] = int8(r.Intn(255) - 127)
	}
	return in
}

// TestCheckedRunAllocsPinned pins the checked retire path allocation-
// free: a checked Run allocates the same number of objects on a
// 4-input toy image as on an MNIST-sized unrolled one, so nothing is
// allocated per retire, per block, or per PC — only per run.
func TestCheckedRunAllocsPinned(t *testing.T) {
	small, err := modelimg.Build(tinyModel(), modelimg.UseBlock)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(img *modelimg.Image) (float64, uint64) {
		fi, err := device.NewFlashImage(img)
		if err != nil {
			t.Fatal(err)
		}
		board := fi.NewBoard()
		board.Checked = true
		in := seededInput(img.InDim, 5)
		res, err := board.Run(in) // compiles the certificate once
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(5, func() {
			if _, err := board.Run(in); err != nil {
				t.Fatal(err)
			}
		})
		return n, res.Instructions
	}
	smallAllocs, smallInstr := allocs(small)
	bigAllocs, bigInstr := allocs(mnistUnrolledImage(t))
	t.Logf("checked Run: %v allocs for %d retires, %v allocs for %d retires", smallAllocs, smallInstr, bigAllocs, bigInstr)
	if bigInstr < 100*smallInstr {
		t.Fatalf("the large image retired only %d instructions (small: %d): the pin would be vacuous", bigInstr, smallInstr)
	}
	if smallAllocs != bigAllocs {
		t.Fatalf("checked Run allocates %v objects on the small image but %v on the MNIST-sized one", smallAllocs, bigAllocs)
	}
}

// checkedAccounting is what a checked run certified, per input.
type checkedAccounting struct {
	Cycles, Certified, Exempt uint64
	Blocks, Taken             map[uint32]uint64
}

func accounting(res *device.Result) checkedAccounting {
	return checkedAccounting{
		Cycles: res.Cycles, Certified: res.Check.CertifiedCycles(), Exempt: res.Check.ExemptCycles(),
		Blocks: res.Check.BlockExecutions(), Taken: res.Check.TakenExits(),
	}
}

// TestCheckedRepeatedRunsShareTable runs many checked inferences, in
// two different orders, on one board whose compiled certificate is
// reused run after run: every input's accounting equals a fresh board's
// (its own compiled table, one run), so no run leaks state into the
// shared table or the next run.
func TestCheckedRepeatedRunsShareTable(t *testing.T) {
	for _, enc := range []modelimg.EncodingChoice{modelimg.UseBlock, modelimg.UseCSC} {
		img, err := modelimg.Build(tinyModel(), enc)
		if err != nil {
			t.Fatal(err)
		}
		const n = 6
		want := make([]checkedAccounting, n)
		for i := range want {
			fresh, err := device.New(img)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Checked = true
			res, err := fresh.Run(seededInput(img.InDim, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			want[i] = accounting(res)
		}
		fi, err := device.NewFlashImage(img)
		if err != nil {
			t.Fatal(err)
		}
		board := fi.NewBoard()
		board.Checked = true
		for pass, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 3, 1, 4, 2, 0}} {
			for _, i := range order {
				res, err := board.Run(seededInput(img.InDim, uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				if got := accounting(res); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("%v pass %d input %d: shared-table accounting %+v, fresh board %+v", enc, pass, i, got, want[i])
				}
			}
		}
	}
}
