package armv6m_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
	"github.com/neuro-c/neuroc/internal/asmcheck"
	"github.com/neuro-c/neuroc/internal/kernels"
	"github.com/neuro-c/neuroc/internal/thumb"
)

// Differential tests for the predecoded fast interpreter: a predecoded
// core and a DisablePredecode (fetch/decode) core run the same image in
// lockstep, and every architectural and accounting observable must be
// bit-identical at every step — registers, flags, Cycles, Instructions,
// bus counters, SysTick fires, error strings, and final SRAM contents.

// errStr folds an error to a comparable string ("" for nil).
func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compareState fails the test on any state divergence between the two
// cores after step n.
func compareState(t *testing.T, n int, fast, legacy *armv6m.CPU) {
	t.Helper()
	if fast.R != legacy.R {
		t.Fatalf("step %d: registers diverged\nfast:   %08x\nlegacy: %08x", n, fast.R, legacy.R)
	}
	if fast.N != legacy.N || fast.Z != legacy.Z || fast.C != legacy.C || fast.V != legacy.V {
		t.Fatalf("step %d: flags diverged: fast NZCV=%v%v%v%v legacy %v%v%v%v",
			n, fast.N, fast.Z, fast.C, fast.V, legacy.N, legacy.Z, legacy.C, legacy.V)
	}
	if fast.Cycles != legacy.Cycles {
		t.Fatalf("step %d: cycles %d vs %d", n, fast.Cycles, legacy.Cycles)
	}
	if fast.Instructions != legacy.Instructions {
		t.Fatalf("step %d: instructions %d vs %d", n, fast.Instructions, legacy.Instructions)
	}
	if fast.Halted != legacy.Halted || fast.HaltCode != legacy.HaltCode {
		t.Fatalf("step %d: halt state (%v,%d) vs (%v,%d)",
			n, fast.Halted, fast.HaltCode, legacy.Halted, legacy.HaltCode)
	}
	if fast.Bus.FlashReads != legacy.Bus.FlashReads ||
		fast.Bus.SRAMReads != legacy.Bus.SRAMReads ||
		fast.Bus.SRAMWrites != legacy.Bus.SRAMWrites {
		t.Fatalf("step %d: bus counters flash %d/%d sramR %d/%d sramW %d/%d",
			n, fast.Bus.FlashReads, legacy.Bus.FlashReads,
			fast.Bus.SRAMReads, legacy.Bus.SRAMReads,
			fast.Bus.SRAMWrites, legacy.Bus.SRAMWrites)
	}
	if fast.SysTick.Fires != legacy.SysTick.Fires {
		t.Fatalf("step %d: SysTick fires %d vs %d", n, fast.SysTick.Fires, legacy.SysTick.Fires)
	}
}

// lockstep steps both cores until both stop (halt or error) or
// maxSteps, comparing full state after every step. The cores must stop
// the same way with the same error text.
func lockstep(t *testing.T, fast, legacy *armv6m.CPU, maxSteps int) {
	t.Helper()
	if !legacy.DisablePredecode {
		t.Fatal("legacy core does not have DisablePredecode set")
	}
	for n := 0; n < maxSteps; n++ {
		errFast := fast.Step()
		errLegacy := legacy.Step()
		if errStr(errFast) != errStr(errLegacy) {
			t.Fatalf("step %d: error diverged\nfast:   %v\nlegacy: %v", n, errFast, errLegacy)
		}
		compareState(t, n, fast, legacy)
		if errFast != nil {
			break
		}
	}
	for i := range fast.Bus.SRAM {
		if fast.Bus.SRAM[i] != legacy.Bus.SRAM[i] {
			t.Fatalf("SRAM diverged at +0x%x: %02x vs %02x", i, fast.Bus.SRAM[i], legacy.Bus.SRAM[i])
		}
	}
}

// bootPair boots the same source on a predecoded and a legacy core.
func bootPair(t testing.TB, src string) (fast, legacy *armv6m.CPU) {
	fast, _ = boot(t, src)
	legacy, _ = boot(t, src)
	legacy.DisablePredecode = true
	return fast, legacy
}

// TestPredecodeParityKernels runs every generated kernel variant's
// self-check harness to completion on both paths. This is the tentpole
// guarantee: the fast interpreter is invisible to every kernel the
// deployment search space can emit.
func TestPredecodeParityKernels(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, legacy := bootPair(t, v.Harness)
			lockstep(t, fast, legacy, 3_000_000)
			if !fast.Halted {
				t.Fatalf("kernel %s never halted", v.Name)
			}
		})
	}
}

// TestPredecodeParitySysTick preempts a flag-sensitive loop with a
// short-period SysTick on both paths: exception entry/return, hardware
// stacking, and the fire accounting must stay bit-identical.
func TestPredecodeParitySysTick(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 97)
	legacy := bootWithISR(t, countdownLoop, 97)
	legacy.DisablePredecode = true
	lockstep(t, fast, legacy, 2_000_000)
	if !fast.Halted {
		t.Fatal("loop never halted")
	}
	if fast.SysTick.Fires == 0 {
		t.Fatal("SysTick never fired: the preemption parity run was vacuous")
	}
}

// TestPredecodeParityTrace runs the traced path on both cores and
// requires identical attribution: per-class cycles, branch outcomes,
// bus traffic, exception buckets, and the per-PC histogram.
func TestPredecodeParityTrace(t *testing.T) {
	fast := bootWithISR(t, countdownLoop, 501)
	legacy := bootWithISR(t, countdownLoop, 501)
	legacy.DisablePredecode = true
	tf := fast.EnableTrace()
	tl := legacy.EnableTrace()
	lockstep(t, fast, legacy, 2_000_000)

	if tf.ClassCycles != tl.ClassCycles || tf.ClassInstrs != tl.ClassInstrs {
		t.Errorf("class attribution diverged:\nfast:   %v %v\nlegacy: %v %v",
			tf.ClassCycles, tf.ClassInstrs, tl.ClassCycles, tl.ClassInstrs)
	}
	if tf.BranchTaken != tl.BranchTaken || tf.BranchNotTaken != tl.BranchNotTaken {
		t.Errorf("branch outcomes %d/%d vs %d/%d",
			tf.BranchTaken, tf.BranchNotTaken, tl.BranchTaken, tl.BranchNotTaken)
	}
	if tf.ExceptionEntries != tl.ExceptionEntries || tf.ExceptionEntryCycles != tl.ExceptionEntryCycles {
		t.Errorf("exception buckets %d/%d vs %d/%d",
			tf.ExceptionEntries, tf.ExceptionEntryCycles, tl.ExceptionEntries, tl.ExceptionEntryCycles)
	}
	if tf.FlashAccesses != tl.FlashAccesses || tf.SRAMReads != tl.SRAMReads ||
		tf.SRAMWrites != tl.SRAMWrites || tf.FlashWaitCycles != tl.FlashWaitCycles {
		t.Errorf("bus attribution diverged: %+v vs %+v", tf, tl)
	}
	if tf.SPMin != tl.SPMin {
		t.Errorf("SPMin 0x%08x vs 0x%08x", tf.SPMin, tl.SPMin)
	}
	hist := func(tr *armv6m.Trace) map[uint32]armv6m.PCSample {
		m := make(map[uint32]armv6m.PCSample)
		tr.PCs.Each(func(pc uint32, s armv6m.PCSample) { m[pc] = s })
		return m
	}
	if hf, hl := hist(tf), hist(tl); !reflect.DeepEqual(hf, hl) {
		t.Errorf("PC histograms diverged: %v vs %v", hf, hl)
	}
}

// TestPredecodeParityWaitStates re-runs a kernel harness with one flash
// wait state: the fast path must charge the same fetch penalty the bus
// model does.
func TestPredecodeParityWaitStates(t *testing.T) {
	v := kernels.Variants()[0]
	fast, legacy := bootPair(t, v.Harness)
	fast.Bus.FlashWaitStates = 1
	legacy.Bus.FlashWaitStates = 1
	lockstep(t, fast, legacy, 3_000_000)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// TestPredecodeFallbackBeyondPrefix jumps execution past the loaded
// image, where no predecoded entries exist: the zero-filled flash
// (LSLS r0, r0, #0 sleds) must execute identically through the
// interpreted fallback on both cores, including the budget error.
func TestPredecodeFallbackBeyondPrefix(t *testing.T) {
	fast, legacy := bootPair(t, `
		ldr r0, =0x08010001     @ far beyond any loaded byte, Thumb bit set
		bx r0
		.pool
	`)
	for _, c := range []*armv6m.CPU{fast, legacy} {
		err := c.Run(1000)
		var be *armv6m.BudgetError
		if !asBudget(err, &be) {
			t.Fatalf("err = %v, want BudgetError from the zero sled", err)
		}
	}
	compareState(t, -1, fast, legacy)
}

func asBudget(err error, target **armv6m.BudgetError) bool {
	be, ok := err.(*armv6m.BudgetError)
	if ok {
		*target = be
	}
	return ok
}

// TestPredecodeFallbackBootAlias executes code through the flash boot
// alias at address 0, which the predecode table does not cover: the
// interpreted fallback must produce identical state.
func TestPredecodeFallbackBootAlias(t *testing.T) {
	// The program lives at codeBase = FlashBase + 0x10; its alias is at
	// plain 0x10. Jump there and run the same instructions.
	fast, legacy := bootPair(t, `
		ldr r0, =0x11           @ alias of codeBase, Thumb bit set
		mov r12, r0
		cmp r1, #1
		beq aliased             @ second pass: skip the jump, finish
		movs r1, #1
		bx r0
	aliased:
		movs r2, #41
		adds r2, r2, r1
		bkpt #0
		.pool
	`)
	lockstep(t, fast, legacy, 1000)
	if !fast.Halted || fast.R[2] != 42 {
		t.Fatalf("alias run: halted=%v r2=%d, want halted r2=42", fast.Halted, fast.R[2])
	}
}

// TestPredecodeInvalidateOnLoadFlash overwrites the program after a
// predecoded run: the stale table must be rebuilt, and the second
// program's behavior (not the first's) must execute.
func TestPredecodeInvalidateOnLoadFlash(t *testing.T) {
	cpu, _ := boot(t, `
		movs r0, #1
		bkpt #0
	`)
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 1 {
		t.Fatalf("first program: r0 = %d, want 1", cpu.R[0])
	}

	prog, err := thumb.Assemble("movs r0, #2\n\tbkpt #0\n", codeBase)
	if err != nil {
		t.Fatal(err)
	}
	if err := cpu.Bus.LoadFlash(int(codeBase-armv6m.FlashBase), prog.Code); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.R[0] != 2 {
		t.Fatalf("after LoadFlash: r0 = %d, want 2 (stale predecode table executed)", cpu.R[0])
	}
}

// TestPredecodeSharedTableParity boots one board with a table built
// externally (the farm's shared-table path, armv6m.Predecode +
// UsePredecode) and one legacy board, and requires identical runs.
func TestPredecodeSharedTableParity(t *testing.T) {
	v := kernels.Variants()[0]
	prog, err := thumb.Assemble(v.Harness, codeBase)
	if err != nil {
		t.Fatal(err)
	}
	flash := make([]byte, armv6m.FlashSize)
	sp := uint32(armv6m.SRAMBase + armv6m.SRAMSize)
	entry := prog.Base | 1
	put32 := func(off int, val uint32) {
		flash[off] = byte(val)
		flash[off+1] = byte(val >> 8)
		flash[off+2] = byte(val >> 16)
		flash[off+3] = byte(val >> 24)
	}
	put32(0, sp)
	put32(4, entry)
	copy(flash[codeBase-armv6m.FlashBase:], prog.Code)

	table := armv6m.Predecode(flash, int(codeBase-armv6m.FlashBase)+len(prog.Code))
	if table.Len() == 0 {
		t.Fatal("empty predecode table")
	}
	fast := armv6m.NewSharedFlash(flash)
	fast.UsePredecode(table)
	legacy := armv6m.NewSharedFlash(flash)
	legacy.DisablePredecode = true
	for _, c := range []*armv6m.CPU{fast, legacy} {
		if err := c.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	lockstep(t, fast, legacy, 3_000_000)
	if !fast.Halted {
		t.Fatal("kernel never halted")
	}
}

// bootRunPair boots src on a predecoded and a legacy core at ws flash
// wait states, with the telemetry peripheral mapped when asked.
func bootRunPair(t *testing.T, src string, ws int, telemetry bool) (fast, legacy *armv6m.CPU) {
	t.Helper()
	fast, legacy = bootPair(t, src)
	for _, c := range []*armv6m.CPU{fast, legacy} {
		c.Bus.FlashWaitStates = ws
		if telemetry {
			c.EnableTimer()
		}
	}
	return fast, legacy
}

// finishRuns runs both cores through Run under the same instruction
// budget and requires the same outcome — error text and BudgetError
// classification — and bit-identical final state, SRAM, and telemetry.
func finishRuns(t *testing.T, fast, legacy *armv6m.CPU, budget uint64) {
	t.Helper()
	errFast, errLegacy := fast.Run(budget), legacy.Run(budget)
	var bf, bl *armv6m.BudgetError
	if errStr(errFast) != errStr(errLegacy) || errors.As(errFast, &bf) != errors.As(errLegacy, &bl) {
		t.Fatalf("run error diverged: %v vs %v", errFast, errLegacy)
	}
	compareState(t, -1, fast, legacy)
	for i := range fast.Bus.SRAM {
		if fast.Bus.SRAM[i] != legacy.Bus.SRAM[i] {
			t.Fatalf("SRAM diverged at +0x%x", i)
		}
	}
	ft, lt := fast.Bus.Timer, legacy.Bus.Timer
	if (ft == nil) != (lt == nil) {
		t.Fatal("timer presence diverged")
	}
	if ft != nil && (!reflect.DeepEqual(ft.Events, lt.Events) || ft.Dropped != lt.Dropped) {
		t.Fatalf("telemetry diverged: %d events (%d dropped) vs %d (%d dropped)",
			len(ft.Events), ft.Dropped, len(lt.Events), lt.Dropped)
	}
}

// certifyHarness requires src to certify under the strict kernel
// configuration, with the telemetry peripheral window mapped when asked.
func certifyHarness(t *testing.T, src string, telemetry bool) {
	t.Helper()
	prog, err := thumb.Assemble(src, codeBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := asmcheck.DefaultConfig()
	cfg.Strict = true
	cfg.StackBudget = 1024
	if telemetry {
		cfg.PeriphBase, cfg.PeriphSize = armv6m.TimerBase, armv6m.TimerSize
	}
	if desc, err := prog.Symbol("desc"); err == nil {
		cfg.CodeLimit = desc
	}
	_, rep, err := asmcheck.Certify(prog, cfg)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestTranslateParityKernels runs every certified kernel variant to
// completion through Run — the hoisted steady-state loop, not Step — on
// the predecoded and the legacy path at 0-2 flash wait states and
// requires bit-identical final state. The name dates from when a third,
// translated tier was compared here too.
func TestTranslateParityKernels(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			certifyHarness(t, v.Harness, false)
			for ws := 0; ws <= 2; ws++ {
				t.Run(fmt.Sprintf("ws=%d", ws), func(t *testing.T) {
					fast, legacy := bootRunPair(t, v.Harness, ws, false)
					finishRuns(t, fast, legacy, 3_000_000)
					if !fast.Halted {
						t.Fatalf("kernel %s never halted", v.Name)
					}
				})
			}
		})
	}
}

// TestTranslateParityTelemetry repeats TestTranslateParityKernels over
// the telemetry harnesses: mailbox events must commit at identical
// retire-time cycle counts on both paths.
func TestTranslateParityTelemetry(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			certifyHarness(t, v.TelemetryHarness, true)
			for ws := 0; ws <= 2; ws++ {
				fast, legacy := bootRunPair(t, v.TelemetryHarness, ws, true)
				finishRuns(t, fast, legacy, 3_000_000)
				if !fast.Halted {
					t.Fatalf("ws=%d: telemetry harness %s never halted", ws, v.Name)
				}
				if len(fast.Bus.Timer.Events) == 0 {
					t.Fatalf("ws=%d: no telemetry events: the parity run was vacuous", ws)
				}
			}
		})
	}
}

// TestPredecodeRunParity drives whole runs through Run against legacy
// Run, comparing final state: every kernel variant at the default wait
// states, budget cuts that land anywhere in a kernel run, and a
// SysTick-preempted loop.
func TestPredecodeRunParity(t *testing.T) {
	for _, v := range kernels.Variants() {
		t.Run(v.Name, func(t *testing.T) {
			fast, legacy := bootPair(t, v.Harness)
			finishRuns(t, fast, legacy, 3_000_000)
		})
	}
	t.Run("budget", func(t *testing.T) {
		v := kernels.Variants()[0]
		ref, _ := bootRunPair(t, v.Harness, 1, false)
		if err := ref.Run(3_000_000); err != nil {
			t.Fatalf("reference run: %v", err)
		}
		total := ref.Instructions
		for _, k := range []uint64{0, 1, 2, 3, 5, 8, 13, 21, 100, total / 3, total / 2, total - 1, total, total + 17} {
			t.Run(fmt.Sprintf("budget=%d", k), func(t *testing.T) {
				fast, legacy := bootRunPair(t, v.Harness, 1, false)
				finishRuns(t, fast, legacy, k)
			})
		}
	})
	t.Run("systick", func(t *testing.T) {
		fast := bootWithISR(t, countdownLoop, 97)
		legacy := bootWithISR(t, countdownLoop, 97)
		legacy.DisablePredecode = true
		finishRuns(t, fast, legacy, 3_000_000)
		if fast.SysTick.Fires == 0 {
			t.Fatal("SysTick never fired")
		}
	})
}

// TestStepNoAllocs pins the zero-allocation contract for straight-line
// execution on both the predecoded and the interpreted path.
func TestStepNoAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"Predecoded", false},
		{"Legacy", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cpu, _ := boot(t, `
				ldr r1, =0x20000000
			loop:
				adds r0, #1
				ldr r2, [r1]
				str r2, [r1]
				b loop
				.pool
			`)
			cpu.DisablePredecode = tc.disable
			if err := cpu.Step(); err != nil { // builds the table off the measured path
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(200, func() {
				if err := cpu.Step(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("Step allocates %v times per instruction, want 0", n)
			}
		})
	}
}

// TestPredecodeTableMetadata sanity-checks the table API the callers
// build observability on.
func TestPredecodeTableMetadata(t *testing.T) {
	flash := make([]byte, 64)
	table := armv6m.Predecode(flash, 32)
	if table.Len() != 16 {
		t.Errorf("Len = %d, want 16 (32-byte prefix)", table.Len())
	}
	if table.BuildTime() <= 0 {
		t.Errorf("BuildTime = %v, want > 0", table.BuildTime())
	}
	if got := armv6m.Predecode(flash, 0).Len(); got != 32 {
		t.Errorf("limit 0 decodes %d slots, want the whole array (32)", got)
	}
	if got := armv6m.Predecode(flash, 1<<20).Len(); got != 32 {
		t.Errorf("oversized limit decodes %d slots, want 32", got)
	}
}

// sink keeps benchmark results live.
var sink uint64

// benchProgram mirrors the dense kernel's MAC inner loop from
// internal/kernels (kernels.go, the `_i` loop) instruction for
// instruction: a signed weight load from flash, a signed activation
// load from SRAM, multiply-accumulate, and the column-index
// compare/branch, wrapped in a row loop that stores the accumulator.
// This is the instruction mix inference spends its cycles in, so the
// two MIPS figures below give the speedup on real workloads.
const benchProgram = `
entry:
	ldr r7, =2000           @ row count
	ldr r3, =0x08000000     @ weight row pointer (flash)
	ldr r4, =0x20000000     @ activation buffer (SRAM)
	movs r5, #64            @ connections per row
outer:
	movs r1, #0             @ accumulator
	movs r2, #0             @ column index
inner:
	ldrsb r6, [r3, r2]      @ weight (flash)
	ldrsb r0, [r4, r2]      @ activation (SRAM)
	muls r6, r0, r6
	adds r1, r1, r6
	adds r2, #1
	cmp r2, r5
	blo inner               @ asmcheck: loop 64
	str r1, [r4, #64]       @ store the row accumulator
	subs r7, #1
	bne outer               @ asmcheck: loop 2000
	bkpt #0
	.pool
`

func benchRun(b *testing.B, disable bool) {
	cpu, _ := boot(b, benchProgram)
	cpu.DisablePredecode = disable
	if err := cpu.Run(10_000_000); err != nil { // warm up, build the table
		b.Fatal(err)
	}
	instrPerRun := cpu.Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Reset(); err != nil {
			b.Fatal(err)
		}
		cpu.Cycles, cpu.Instructions = 0, 0
		if err := cpu.Run(10_000_000); err != nil {
			b.Fatal(err)
		}
		sink += cpu.Cycles
	}
	b.StopTimer()
	mips := float64(instrPerRun) * float64(b.N) / b.Elapsed().Seconds() / 1e6
	b.ReportMetric(mips, "MIPS")
}

// BenchmarkInference measures a whole emulated kernel run (reset to
// BKPT) on both tiers; the ratio of the MIPS figures is the predecode
// speedup.
func BenchmarkInference(b *testing.B) {
	b.Run("Predecoded", func(b *testing.B) { benchRun(b, false) })
	b.Run("Legacy", func(b *testing.B) { benchRun(b, true) })
}

// BenchmarkStep measures the per-instruction cost of the hot loop in
// isolation (a taken branch and an add, the tightest possible loop).
func BenchmarkStep(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"Predecoded", false},
		{"Legacy", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cpu, _ := boot(b, `
			loop:
				adds r0, #1
				b loop
			`)
			cpu.DisablePredecode = tc.disable
			if err := cpu.Step(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cpu.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sink += cpu.Cycles
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
		})
	}
}
