package cert

import (
	"fmt"
	"math"
)

// Compiled is a certificate compiled for checked execution: the facts
// a retire needs, laid out densely by instruction address, with block,
// function and loop facts resolved to ordinals. It is immutable once
// built, so one Compiled serves every board and every run of its image
// concurrently (device.FlashImage builds it once and shares it); a run
// adds only its own Checker state.
type Compiled struct {
	cert  *Certificate
	base  uint32
	span  uint32 // CodeLimit - CodeBase
	slots []slot // by (addr-base)/2; blk < 0 marks an uncertified halfword

	blocks []cblock
	funcs  []cfunc
	heads  []chead   // loops by header block: blocks[b].heads indexes here
	bits   []uint64  // loop membership bitsets over function-local block ordinals
	roots  []uint32  // certified run entry points
	isrs   []entryFn // certified exception entry points

	// byAddr resolves a function entry address to its ordinal. Only the
	// cold paths (first retire, exception entry) consult it; call sites
	// are resolved at compile time.
	byAddr map[uint32]int32

	// tripSlots is the per-run loop trip-counter capacity: every
	// function's counters twice over (one call chain plus one
	// exception's), which covers any non-recursive certificate without
	// growing during the run.
	tripSlots int
}

// slot is one certified instruction's retire-time facts, everything the
// per-instruction checks read, held inline so a retire touches one
// 32-byte record and nothing else.
type slot struct {
	target uint32 // branch target, or callee entry for a call
	blk    int32  // owning block ordinal, -1 when uncertified
	fn     int32  // owning function ordinal
	callee int32  // callee function ordinal for a call, -1 when uncertified

	cost, costWS uint16 // Cost.Base, Cost.WS
	taken        uint16 // TakenExtra

	flash, sramR, sramW uint16 // certified bus-counter deltas

	size  uint8
	flags uint8
}

// slot flags.
const (
	fExact     = 1 << iota // cost and counter deltas proven exact
	fRet                   // function or exception return
	fHalt                  // BKPT: the certified end of the run
	fCall                  // BL
	fCond                  // conditional branch (taken edge adds taken)
	fBranch                // unconditional branch
	fEndsBlock             // the fall-through address is the block's end
)

// cblock is one certified basic block.
type cblock struct {
	src   *Block
	start uint32
	last  uint32 // address of the terminating instruction
	fn    int32
	local int32 // ordinal within its function (loop membership bit)
	cost  Formula
	taken uint64
	exact bool

	counter        int32 // trip counter within the frame, -1 when heading no loop
	headLo, headHi int32 // the loops this block heads, in certificate order
}

// chead is one loop, seen from its header block.
type chead struct {
	bound uint64
	bits  int32 // offset of the membership bitset in Compiled.bits
}

func (h *chead) member(bits []uint64, local int32) bool {
	return bits[h.bits+local>>6]>>(uint(local)&63)&1 != 0
}

type cfunc struct {
	name     string
	counters int32 // distinct loop headers: trip counters per frame
}

type entryFn struct {
	addr uint32
	fn   int32
}

// Compile lays the certificate out for checked execution. It rejects
// certificates whose facts cannot describe a run: an empty code range,
// instructions outside it or overlapping, an ISR root with no function,
// or a per-instruction fact too large for any Thumb-1 instruction.
func Compile(c *Certificate) (*Compiled, error) {
	if c.CodeLimit <= c.CodeBase {
		return nil, fmt.Errorf("cert: empty code range [0x%08x, 0x%08x)", c.CodeBase, c.CodeLimit)
	}
	p := &Compiled{
		cert:   c,
		base:   c.CodeBase,
		span:   c.CodeLimit - c.CodeBase,
		slots:  make([]slot, (c.CodeLimit-c.CodeBase+1)/2),
		roots:  append([]uint32(nil), c.Roots...),
		byAddr: make(map[uint32]int32, len(c.Funcs)),
	}
	for i := range p.slots {
		p.slots[i].blk = -1
	}
	for fi := range c.Funcs {
		p.byAddr[c.Funcs[fi].Addr] = int32(fi) // a later duplicate wins
	}
	for fi := range c.Funcs {
		if err := p.compileFunc(int32(fi), &c.Funcs[fi]); err != nil {
			return nil, err
		}
	}
	for _, a := range c.ISRRoots {
		fn, ok := p.byAddr[a]
		if !ok {
			return nil, fmt.Errorf("cert: ISR root 0x%08x has no certified function", a)
		}
		p.isrs = append(p.isrs, entryFn{addr: a, fn: fn})
	}
	for _, f := range p.funcs {
		p.tripSlots += 2 * int(f.counters)
	}
	return p, nil
}

func (p *Compiled) compileFunc(fi int32, f *Func) error {
	// Each loop's membership bitset over the function's blocks, by
	// block start as the certificate lists members.
	words := (len(f.Blocks) + 63) / 64
	loopBits := make([]int32, len(f.Loops))
	loopsAt := make(map[uint32][]int) // loops by header address
	for li := range f.Loops {
		members := make(map[uint32]bool, len(f.Loops[li].Blocks))
		for _, a := range f.Loops[li].Blocks {
			members[a] = true
		}
		loopBits[li] = int32(len(p.bits))
		set := make([]uint64, words)
		for bi := range f.Blocks {
			if members[f.Blocks[bi].Start] {
				set[bi>>6] |= 1 << (uint(bi) & 63)
			}
		}
		p.bits = append(p.bits, set...)
		loopsAt[f.Loops[li].Header] = append(loopsAt[f.Loops[li].Header], li)
	}
	// Blocks sharing a header address share its trip counter, as the
	// certificate's header-keyed bounds require.
	counterAt := make(map[uint32]int32)
	for bi := range f.Blocks {
		blk := &f.Blocks[bi]
		cb := cblock{
			src: blk, start: blk.Start, fn: fi, local: int32(bi),
			cost: blk.Cost, taken: blk.TakenExtra, exact: blk.Exact, counter: -1,
		}
		if n := len(blk.Instrs); n > 0 {
			cb.last = blk.End - uint32(blk.Instrs[n-1].Size)
		}
		cb.headLo = int32(len(p.heads))
		if ls := loopsAt[blk.Start]; len(ls) > 0 {
			ctr, ok := counterAt[blk.Start]
			if !ok {
				ctr = int32(len(counterAt))
				counterAt[blk.Start] = ctr
			}
			cb.counter = ctr
			for _, li := range ls {
				p.heads = append(p.heads, chead{bound: f.Loops[li].Bound, bits: loopBits[li]})
			}
		}
		cb.headHi = int32(len(p.heads))
		b := int32(len(p.blocks))
		p.blocks = append(p.blocks, cb)
		for ii := range blk.Instrs {
			if err := p.compileInstr(fi, b, blk, &blk.Instrs[ii]); err != nil {
				return err
			}
		}
	}
	p.funcs = append(p.funcs, cfunc{name: f.Name, counters: int32(len(counterAt))})
	return nil
}

func (p *Compiled) compileInstr(fi, b int32, blk *Block, in *Instr) error {
	if in.Addr < p.base || in.Addr >= p.cert.CodeLimit || in.Addr&1 != 0 {
		return fmt.Errorf("cert: instruction 0x%08x outside code range", in.Addr)
	}
	s := &p.slots[(in.Addr-p.base)/2]
	if s.blk >= 0 {
		return fmt.Errorf("cert: overlapping facts at 0x%08x", in.Addr)
	}
	for _, v := range []uint64{in.Cost.Base, in.Cost.WS, in.TakenExtra, in.FlashReads, in.SRAMReads, in.SRAMWrites} {
		if v > math.MaxUint16 {
			return fmt.Errorf("cert: instruction 0x%08x: fact %d out of range", in.Addr, v)
		}
	}
	*s = slot{
		target: in.Target, blk: b, fn: fi, callee: -1,
		cost: uint16(in.Cost.Base), costWS: uint16(in.Cost.WS), taken: uint16(in.TakenExtra),
		flash: uint16(in.FlashReads), sramR: uint16(in.SRAMReads), sramW: uint16(in.SRAMWrites),
		size: in.Size,
	}
	// The flags mirror the raw facts; Retire gives them the
	// certificate's precedence (halt, return, call, conditional,
	// unconditional).
	for _, f := range []struct {
		on   bool
		flag uint8
	}{
		{in.Exact, fExact}, {in.Halt, fHalt}, {in.Ret, fRet}, {in.Call != 0, fCall},
		{in.Target != 0 && in.TakenExtra != 0, fCond}, {in.Target != 0, fBranch},
	} {
		if f.on {
			s.flags |= f.flag
		}
	}
	if in.Call != 0 {
		s.target = in.Call
		if fn, ok := p.byAddr[in.Call]; ok {
			s.callee = fn
		}
	}
	if in.Addr+uint32(in.Size) == blk.End {
		s.flags |= fEndsBlock
	}
	return nil
}

// instr returns the certificate fact behind slot s at addr, for error
// messages.
func (p *Compiled) instr(s *slot, addr uint32) *Instr {
	for i := range p.blocks[s.blk].src.Instrs {
		if in := &p.blocks[s.blk].src.Instrs[i]; in.Addr == addr {
			return in
		}
	}
	return nil
}
