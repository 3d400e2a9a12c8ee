package kernels

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/neuro-c/neuroc/internal/encoding"
)

// The unrolled encoding (ROADMAP item 2, after "Unrolling Ternary
// Neural Networks"): the layer's ternary adjacency matrix is baked
// directly into the instruction stream as straight-line Thumb-1 — one
// adds/subs per nonzero weight, no index tables, no inner loops. Every
// zero weight vanishes at codegen time, and every index load with it,
// so the per-connection cost drops from ~10 cycles (block encoding:
// index load, register-offset gather, accumulate, loop bookkeeping) to
// ~1 cycle per weight plus a shared ~3-cycle gather per touched input.
// The trade is flash: weights become instructions (~2 bytes per
// nonzero plus gathers) instead of packed table entries.
//
// Unlike the table-driven kernels, an unrolled kernel is specialized to
// ONE layer: the input and accumulator buffer addresses are literal
// constants, and the descriptor argument in r0 is ignored (the entry
// optimizer deletes the now-dead descriptor load; see optimizer.go).
// Being straight line, every block certifies Exact trivially, which is
// what lets the cert-based WCET (cert.Certificate.WCET) price it
// exactly for the per-layer encoding search.

// UnrollFactors are the supported unroll factors: how many output
// neurons share one sweep over the union of their input supports (and
// therefore one ldrb+sxtb gather per touched input). The accumulators
// live in r3/r5/r6/r7, hence the cap of 4.
var UnrollFactors = []int{1, 2, 4}

// unrollAccRegs are the accumulator registers for a group, in store
// order.
var unrollAccRegs = [4]string{"r3", "r5", "r6", "r7"}

// unrollPoolSlack triggers the literal-pool flush: the two prologue
// "ldr =" literals must be materialized within 1020 bytes of their
// loads, so once the emitted function body crosses this size the
// generator branches over an inline pool — the row-chunking that keeps
// arbitrarily large unrolled layers assemblable.
const unrollPoolSlack = 900

// Unrolled generates the weight-specialized straight-line accumulate
// kernel for one ternary layer. name must be unique per layer (the
// kernel is not shareable); factor is one of UnrollFactors; inAddr and
// accAddr are the layer's SRAM input and int32 accumulator buffers.
//
// The emitted code is deliberately naive — rewind-to-zero window moves,
// movs-zero accumulator inits, str+adds store sequences — and relies on
// Optimize (optimizer.go) for the deployed form; the generator/optimizer
// split is what the fuzz parity tests exercise.
func Unrolled(name string, a *encoding.Matrix, factor int, inAddr, accAddr uint32) string {
	ok := false
	for _, f := range UnrollFactors {
		if factor == f {
			ok = true
		}
	}
	if !ok || a == nil || a.Out < 1 || a.In < 1 {
		//neurolint:allow panics (builder invariant: factor and matrix shape come from the deployment planner)
		panic(fmt.Sprintf("kernels: bad unrolled spec (factor %d)", factor))
	}

	var b strings.Builder
	bytes := 0 // emitted code bytes since the function label
	// instr emits one instruction line, given as parts to concatenate.
	instr := func(parts ...string) {
		for _, p := range parts {
			b.WriteString(p)
		}
		bytes += 2 // every emitted instruction is a 16-bit Thumb encoding
	}
	poolPending := true
	poolSeq := 0
	// flushPool branches over an inline literal pool once the prologue
	// literals risk drifting out of "ldr =" range. One flush suffices:
	// the kernel has exactly two literals.
	flushPool := func() {
		if !poolPending || bytes < unrollPoolSlack {
			return
		}
		poolSeq++
		fmt.Fprintf(&b, "\tb %s_p%d\n\t.pool\n%s_p%d:\n", name, poolSeq, name, poolSeq)
		bytes += 12 // branch + alignment + two literal words
		poolPending = false
	}

	fmt.Fprintf(&b, "%s:\n", name)
	instr("\tpush {r4-r7, lr}\n")
	instr(fmt.Sprintf("\tldr r4, =0x%08x      @ input window base\n", inAddr))
	instr(fmt.Sprintf("\tldr r2, =0x%08x      @ acc cursor\n", accAddr))

	base := 0 // r4 = inAddr + base
	// moveWindow repositions r4 so input i is reachable with a 5-bit
	// ldrb offset. Forward moves advance the base to i; backward moves
	// rewind to zero first (naive — the optimizer's add/sub coalescing
	// folds the adjacent rewind+advance runs into the minimal move).
	moveWindow := func(i int) int {
		if i < base {
			for base > 0 {
				step := base
				if step > 255 {
					step = 255
				}
				instr("\tsubs r4, #", strconv.Itoa(step), "\n")
				base -= step
			}
		}
		for i-base > 31 {
			step := i - base
			if step > 255 {
				step = 255
			}
			instr("\tadds r4, #", strconv.Itoa(step), "\n")
			base += step
		}
		return i - base
	}

	for g0 := 0; g0 < a.Out; g0 += factor {
		n := factor
		if g0+n > a.Out {
			n = a.Out - g0
		}
		for j := 0; j < n; j++ {
			instr("\tmovs ", unrollAccRegs[j], ", #0\n")
		}
		// Ascending sweep over the union support of the group's outputs:
		// one gather per touched input, shared by every output in the
		// group with a nonzero weight there.
		for i := 0; i < a.In; i++ {
			used := false
			for j := 0; j < n; j++ {
				if a.At(g0+j, i) != 0 {
					used = true
				}
			}
			if !used {
				continue
			}
			flushPool()
			off := moveWindow(i)
			instr("\tldrb r0, [r4, #", strconv.Itoa(off), "]   @ asmcheck: load sram\n")
			instr("\tsxtb r0, r0\n")
			for j := 0; j < n; j++ {
				switch w := a.At(g0+j, i); {
				case w > 0:
					instr("\tadds ", unrollAccRegs[j], ", ", unrollAccRegs[j], ", r0\n")
				case w < 0:
					instr("\tsubs ", unrollAccRegs[j], ", ", unrollAccRegs[j], ", r0\n")
				}
			}
		}
		for j := 0; j < n; j++ {
			instr("\tstr ", unrollAccRegs[j], ", [r2]\n")
			instr("\tadds r2, #4\n")
		}
		flushPool()
	}
	instr("\tpop {r4-r7, pc}\n")
	if poolPending {
		b.WriteString("\t.pool\n")
	}
	return b.String()
}

// UnrolledName is the per-layer kernel symbol for layer idx at the
// given unroll factor.
func UnrolledName(idx, factor int) string {
	return fmt.Sprintf("l%d_unr%d", idx, factor)
}
