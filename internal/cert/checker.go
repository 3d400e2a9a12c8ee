package cert

import (
	"fmt"
	"slices"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Checked execution: a Checker observes every retired instruction
// through the trace's Observer hook (armv6m.Trace.Observer) and asserts
// that the execution matches the certificate fact for fact:
//
//   - every retired PC is certified, and every control transfer lands
//     on a certified edge (fall-through, branch target, call entry,
//     matching return address, or a certified exception entry/return);
//   - every instruction's bus-counter deltas equal the certified
//     memory classification (a flash load moves the flash counter, an
//     SRAM store moves the SRAM write counter, a peripheral access
//     moves nothing);
//   - every basic-block occurrence costs exactly its certified
//     formula evaluated at the live wait-state setting (plus the
//     taken-edge extra when it exits via a taken conditional branch);
//   - no loop header executes more times per entry than its certified
//     bound.
//
// The first mismatch is recorded as a *CheckError naming the block and
// the violated fact; the checker then goes inert (its state can no
// longer be trusted). Exception entries are charged between
// instructions by the core, so they perturb no per-instruction fact;
// the exception-*return* instruction carries unstacking costs outside
// the certificate's model and is exempted, along with its block
// occurrence, from cycle and counter checks (control flow is still
// validated against the interrupted continuation).

// MismatchKind classifies a certificate violation observed at runtime.
type MismatchKind string

// Mismatch kinds.
const (
	MismatchEdge        MismatchKind = "edge"         // control transfer not on a certified edge
	MismatchMemory      MismatchKind = "memory"       // bus-counter deltas disagree with the memory class
	MismatchBlockCycles MismatchKind = "block-cycles" // block occurrence cost != certified formula
	MismatchInstrCycles MismatchKind = "instr-cycles" // instruction cost != certified formula
	MismatchLoopBound   MismatchKind = "loop-bound"   // loop trips exceed the certified bound
	MismatchUncertified MismatchKind = "uncertified"  // retired PC has no certificate fact
	MismatchTotals      MismatchKind = "totals"       // whole-run cycle accounting does not close
)

// CheckError is the loud, typed mismatch report: which fact failed,
// in which function and block, at which instruction.
type CheckError struct {
	Kind   MismatchKind
	Func   string
	Block  uint32 // start address of the block, 0 when not applicable
	Addr   uint32 // instruction address, 0 when not applicable
	Detail string
}

func (e *CheckError) Error() string {
	loc := ""
	if e.Func != "" {
		loc = fmt.Sprintf(" in %s", e.Func)
	}
	if e.Block != 0 {
		loc += fmt.Sprintf(" block 0x%08x", e.Block)
	}
	if e.Addr != 0 {
		loc += fmt.Sprintf(" at 0x%08x", e.Addr)
	}
	return fmt.Sprintf("cert: %s mismatch%s: %s", e.Kind, loc, e.Detail)
}

// expectation is the set of certified addresses the next retire may
// land on: after the first retire at most one address, before it the
// certificate's roots.
type expectation struct {
	addr uint32
	kind uint8
}

const (
	expNone  = iota // the certified halt retired: nothing may follow
	expOne          // exactly addr
	expRoots        // any certified root (the run has not started)
)

// frame is one function invocation (or one active exception).
type frame struct {
	fn    int32
	cur   int32       // open block occurrence, -1 between blocks
	prev  int32       // previously closed block in this frame (loop accounting), -1 none
	trips int32       // offset of this frame's loop trip counters in Checker.trips
	exc   bool        // exception frame: resume restores the interrupted expectation
	skip  bool        // open occurrence exempt from the cycle check
	retTo uint32      // caller resume address for call frames
	saved expectation // interrupted expectation for exception frames
	acc   uint64      // active cycles accumulated in the open occurrence
}

// Checker validates one run against a compiled certificate. Create it
// with Compiled.NewChecker (or NewChecker for a one-off run), attach it
// with Attach before CPU.Run, and call Finish after the run; Err
// reports the first mismatch at any point.
//
// Retire contract: a retire reads one inline slot of the shared table,
// updates dense per-run counters, and allocates nothing; map lookups,
// certificate pointers and formatting happen only on the cold paths
// (first retire, exception entry, mismatch).
type Checker struct {
	p     *Compiled
	cpu   *armv6m.CPU
	trace *armv6m.Trace
	ws    uint64

	exp    expectation
	frames []frame
	done   bool

	err error

	// Accounting for the whole-run identity and for tests that
	// recompute block-formula sums independently.
	certSum    uint64   // Σ certified occurrence costs over checked occurrences
	skippedAct uint64   // Σ observed active cycles over exempted occurrences
	execs      []uint64 // occurrences per block ordinal
	takens     []uint64 // taken-edge exits per block ordinal
	trips      []uint64 // loop trip counters, a stack of per-frame windows

	frameBuf [4]frame
}

// NewChecker compiles the certificate and returns a checker for one
// run on cpu. Harnesses that run an image many times compile it once
// (Compile) and call Compiled.NewChecker per run instead.
func NewChecker(c *Certificate, cpu *armv6m.CPU) (*Checker, error) {
	if err := c.CompatibleWith(cpu); err != nil {
		return nil, err
	}
	p, err := Compile(c)
	if err != nil {
		return nil, err
	}
	return p.NewChecker(cpu)
}

// NewChecker returns a checker for one run on cpu, validated against
// the core's configuration (profile, multiplier, wait states). It
// allocates only per-run state: the checker and one slab of dense
// counters.
func (p *Compiled) NewChecker(cpu *armv6m.CPU) (*Checker, error) {
	if err := p.cert.CompatibleWith(cpu); err != nil {
		return nil, err
	}
	nb := len(p.blocks)
	slab := make([]uint64, 2*nb+p.tripSlots)
	k := &Checker{
		p:      p,
		cpu:    cpu,
		ws:     uint64(cpu.Bus.FlashWaitStates),
		exp:    expectation{kind: expRoots},
		execs:  slab[:nb:nb],
		takens: slab[nb : 2*nb : 2*nb],
		trips:  slab[2*nb : 2*nb],
	}
	k.frames = k.frameBuf[:0]
	return k, nil
}

// Attach binds the checker to a trace as its Observer. A caller's
// OnInstr hook stays in place and fires first on every retire, seeing
// the events unmodified; an Observer already installed keeps running,
// ahead of the checker. The returned detach restores the trace's
// previous Observer, so a caller-supplied trace comes back exactly as
// it went in once the checked run is over.
func (k *Checker) Attach(t *armv6m.Trace) (detach func()) {
	k.trace = t
	prev := t.Observer
	if prev == nil {
		t.Observer = k
	} else {
		t.Observer = observers{prev, k}
	}
	return func() { t.Observer = prev }
}

// observers runs two observers in order.
type observers struct{ first, then armv6m.Observer }

func (o observers) Retire(ii *armv6m.InstrInfo) {
	o.first.Retire(ii)
	o.then.Retire(ii)
}

// Err returns the first mismatch observed so far, or nil.
func (k *Checker) Err() error { return k.err }

func (k *Checker) fail(kind MismatchKind, fn int32, block, addr uint32, format string, args ...interface{}) {
	if k.err != nil {
		return
	}
	name := ""
	if fn >= 0 {
		name = k.p.funcs[fn].name
	}
	k.err = &CheckError{Kind: kind, Func: name, Block: block, Addr: addr, Detail: fmt.Sprintf(format, args...)}
}

// expected reports whether addr is on the current expectation.
func (k *Checker) expected(addr uint32) bool {
	switch k.exp.kind {
	case expOne:
		return k.exp.addr == addr
	case expRoots:
		for _, a := range k.p.roots {
			if a == addr {
				return true
			}
		}
	}
	return false
}

func (k *Checker) fmtExpected() string {
	switch k.exp.kind {
	case expOne:
		return fmtAddrs([]uint32{k.exp.addr})
	case expRoots:
		return fmtAddrs(k.p.roots)
	}
	return fmtAddrs(nil)
}

// push opens frame f, giving it zeroed loop trip counters for its
// function on top of the trip stack.
func (k *Checker) push(f frame) {
	n, nc := len(k.trips), int(k.p.funcs[f.fn].counters)
	f.trips = int32(n)
	f.cur, f.prev = -1, -1
	k.trips = slices.Grow(k.trips, nc)[:n+nc]
	clear(k.trips[n:])
	k.frames = append(k.frames, f)
}

// pop closes the top frame and returns it.
func (k *Checker) pop() frame {
	top := k.frames[len(k.frames)-1]
	k.frames = k.frames[:len(k.frames)-1]
	k.trips = k.trips[:top.trips]
	return top
}

// Retire processes one retired instruction. It is the Trace.Observer
// hook; Attach installs it.
func (k *Checker) Retire(ii *armv6m.InstrInfo) {
	if k.err != nil {
		return
	}
	off := ii.Addr - k.p.base
	if off >= k.p.span || ii.Addr&1 != 0 || k.p.slots[off>>1].blk < 0 {
		k.fail(MismatchUncertified, -1, 0, ii.Addr, "retired PC has no certificate fact")
		return
	}
	s := &k.p.slots[off>>1]
	if k.done {
		k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, ii.Addr, "instruction retired after the certified halt")
		return
	}

	// Control transfer: the retire must land on a certified edge. The
	// one legal exception is a hardware exception entry, which may
	// preempt any boundary and vectors to a certified ISR root.
	if k.exp.kind != expOne || k.exp.addr != ii.Addr {
		if !k.enter(s, ii.Addr) {
			return
		}
	}
	top := &k.frames[len(k.frames)-1]
	if s.fn != top.fn {
		k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, ii.Addr,
			"instruction belongs to %s but the active frame is %s", k.p.funcs[s.fn].name, k.p.funcs[top.fn].name)
		return
	}

	// Block occurrence accounting.
	if top.cur != s.blk {
		if top.cur >= 0 {
			// A block can only be left through its terminator; any open
			// occurrence at a block switch means the previous close was
			// missed, which the edge check above already precludes.
			k.fail(MismatchEdge, s.fn, k.p.blocks[top.cur].start, ii.Addr, "block occurrence left open across a block switch")
			return
		}
		if ii.Addr != k.p.blocks[s.blk].start {
			k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, ii.Addr, "control enters a block off its start")
			return
		}
		if !k.openBlock(top, s.blk) {
			return
		}
	}

	active := ii.Cycles - ii.Sleep
	top.acc += active
	// Unstacking costs of an exception return are outside the model.
	if s.flags&fExact == 0 || top.exc && s.flags&fRet != 0 {
		top.skip = true
	} else {
		// Per-instruction cycle formula (conditional branches add the
		// taken extra on the taken edge).
		want := uint64(s.cost) + uint64(s.costWS)*k.ws
		if ii.Taken {
			want += uint64(s.taken)
		}
		if active != want {
			k.fail(MismatchInstrCycles, s.fn, k.p.blocks[s.blk].start, ii.Addr,
				"%d active cycles, certified %d (= %d + %d*ws, ws=%d, taken=%v)",
				active, want, s.cost, s.costWS, k.ws, ii.Taken)
			return
		}
		// Memory classification via exact bus-counter deltas.
		if ii.FlashReads != uint64(s.flash) || ii.SRAMReads != uint64(s.sramR) || ii.SRAMWrites != uint64(s.sramW) {
			k.fail(MismatchMemory, s.fn, k.p.blocks[s.blk].start, ii.Addr,
				"bus deltas flash=%d sramR=%d sramW=%d, certified flash=%d sramR=%d sramW=%d (class %q)",
				ii.FlashReads, ii.SRAMReads, ii.SRAMWrites, s.flash, s.sramR, s.sramW, k.p.instr(s, ii.Addr).Mem)
			return
		}
	}

	// Compute the certified continuation and close/push/pop as the
	// instruction demands.
	next := ii.Addr + uint32(s.size)
	switch {
	case s.flags&fHalt != 0:
		k.closeBlock(top, s, ii.Taken)
		k.done = true
		k.exp = expectation{kind: expNone}
	case s.flags&fRet != 0:
		if !k.closeBlock(top, s, ii.Taken) {
			return
		}
		if len(k.frames) == 1 {
			k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, ii.Addr, "return from the root frame")
			return
		}
		if popped := k.pop(); popped.exc {
			k.exp = popped.saved
		} else {
			k.exp = expectation{addr: popped.retTo, kind: expOne}
		}
	case s.flags&fCall != 0:
		if s.callee < 0 {
			k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, ii.Addr, "call to uncertified function 0x%08x", s.target)
			return
		}
		// A call that ends its block (the return lands on a leader)
		// closes the occurrence before suspending the caller.
		if s.flags&fEndsBlock != 0 && !k.closeBlock(top, s, false) {
			return
		}
		k.push(frame{fn: s.callee, retTo: next})
		k.exp = expectation{addr: s.target, kind: expOne}
	case s.flags&fCond != 0:
		k.closeBlock(top, s, ii.Taken)
		if ii.Taken {
			k.exp = expectation{addr: s.target, kind: expOne}
		} else {
			k.exp = expectation{addr: next, kind: expOne}
		}
	case s.flags&fBranch != 0:
		k.closeBlock(top, s, ii.Taken)
		k.exp = expectation{addr: s.target, kind: expOne}
	default:
		if s.flags&fEndsBlock != 0 {
			k.closeBlock(top, s, false)
		}
		k.exp = expectation{addr: next, kind: expOne}
	}
}

// enter handles a retire off the current expectation: the run's first
// instruction (a certified root) or a hardware exception entry into a
// certified ISR. It reports whether the retire may proceed; otherwise
// the mismatch is recorded.
func (k *Checker) enter(s *slot, addr uint32) bool {
	if !k.expected(addr) {
		isr := int32(-1)
		for _, e := range k.p.isrs {
			if e.addr == addr {
				isr = e.fn
				break
			}
		}
		if isr < 0 || k.inException() {
			k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, addr,
				"control transfer to 0x%08x is not a certified edge (expected %s)", addr, k.fmtExpected())
			return false
		}
		// Exception entry: suspend the interrupted continuation.
		k.push(frame{fn: isr, exc: true, saved: k.exp})
	}
	if len(k.frames) == 0 {
		// First retire of the run: open the root frame.
		fn, ok := k.p.byAddr[addr]
		if !ok {
			k.fail(MismatchEdge, s.fn, k.p.blocks[s.blk].start, addr, "run does not start at a certified root")
			return false
		}
		k.push(frame{fn: fn})
	}
	return true
}

// openBlock starts a block occurrence and runs the loop-bound
// accounting for headers. It reports false on a bound violation.
func (k *Checker) openBlock(top *frame, b int32) bool {
	blk := &k.p.blocks[b]
	top.cur = b
	top.acc = 0
	top.skip = !blk.exact
	if blk.headLo == blk.headHi {
		return true
	}
	trips := &k.trips[top.trips+blk.counter]
	for i := blk.headLo; i < blk.headHi; i++ {
		h := &k.p.heads[i]
		if top.prev >= 0 && h.member(k.p.bits, k.p.blocks[top.prev].local) {
			*trips++
		} else {
			*trips = 1 // fresh entry from outside the loop
		}
		if *trips > h.bound {
			k.fail(MismatchLoopBound, blk.fn, blk.start, blk.start,
				"loop header executed %d times in one entry, certified bound %d", *trips, h.bound)
			return false
		}
	}
	return true
}

// closeBlock ends the open occurrence, checking the certified block
// formula at the live wait-state setting. It reports false on a
// mismatch.
func (k *Checker) closeBlock(top *frame, s *slot, taken bool) bool {
	b := top.cur
	if b < 0 {
		return true
	}
	blk := &k.p.blocks[b]
	k.execs[b]++
	want := blk.cost.Eval(k.ws)
	if taken && blk.taken != 0 {
		want += blk.taken
		k.takens[b]++
	}
	if top.skip {
		k.skippedAct += top.acc
	} else {
		k.certSum += want
		if top.acc != want {
			k.fail(MismatchBlockCycles, s.fn, blk.start, blk.last,
				"occurrence cost %d cycles, certified %d (= %d + %d*ws, ws=%d, taken-exit=%v)",
				top.acc, want, blk.cost.Base, blk.cost.WS, k.ws, taken)
			return false
		}
	}
	top.prev = b
	top.cur = -1
	top.acc = 0
	top.skip = false
	return true
}

// inException reports whether an exception frame is active.
func (k *Checker) inException() bool {
	for i := range k.frames {
		if k.frames[i].exc {
			return true
		}
	}
	return false
}

// Finish validates the whole-run accounting after the core halted:
// the certified occurrence costs, the exempted occurrences' observed
// cycles, the exception-entry cycles, and the sleep cycles must sum
// exactly to CPU.Cycles. It returns the first mismatch (from the run
// or from this final identity), or nil.
func (k *Checker) Finish() error {
	if k.err != nil {
		return k.err
	}
	if !k.done {
		// The run ended without reaching the certified halt (budget
		// exhaustion, fault): per-retire checks all passed, but the
		// whole-run identity is not applicable.
		return nil
	}
	var entry, sleep uint64
	if k.trace != nil {
		entry, sleep = k.trace.ExceptionEntryCycles, k.trace.SleepCycles
	}
	total := k.certSum + k.skippedAct + entry + sleep
	if total != k.cpu.Cycles {
		k.fail(MismatchTotals, -1, 0, 0,
			"certified %d + exempt %d + exception-entry %d + sleep %d = %d cycles, core measured %d",
			k.certSum, k.skippedAct, entry, sleep, total, k.cpu.Cycles)
	}
	return k.err
}

// CertifiedCycles returns the sum of certified block-formula values
// over all checked occurrences (the active, non-exempt portion of the
// run). For a run with no exceptions, no sleep, and a fully exact
// certificate this equals CPU.Cycles.
func (k *Checker) CertifiedCycles() uint64 { return k.certSum }

// ExemptCycles returns the observed active cycles of occurrences that
// were exempt from the cycle check (inexact blocks, exception
// returns).
func (k *Checker) ExemptCycles() uint64 { return k.skippedAct }

// BlockExecutions returns the per-block occurrence counts observed
// during the run, keyed by block start address. The map is built from
// the run's dense counters on each call.
func (k *Checker) BlockExecutions() map[uint32]uint64 { return k.byStart(k.execs) }

// TakenExits returns, per block start, how many occurrences exited via
// the taken edge of a conditional terminator. The map is built from
// the run's dense counters on each call.
func (k *Checker) TakenExits() map[uint32]uint64 { return k.byStart(k.takens) }

func (k *Checker) byStart(counts []uint64) map[uint32]uint64 {
	m := make(map[uint32]uint64)
	for b, n := range counts {
		if n != 0 {
			m[k.p.blocks[b].start] += n
		}
	}
	return m
}

func fmtAddrs(addrs []uint32) string {
	if len(addrs) == 0 {
		return "halt"
	}
	s := ""
	for i, a := range addrs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("0x%08x", a)
	}
	return s
}
