package asmcheck

import (
	"cmp"
	"slices"
	"sort"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// Control-flow recovery: recursive-traversal decoding from the root
// symbols. BL targets become new functions; within a function,
// reachable instructions are partitioned into basic blocks. Literal
// pools and data sections are never decoded because well-formed code
// never reaches them — reaching one is exactly the DECODE_UNKNOWN /
// CFG_FALLTHROUGH defect the checker exists to catch.

type instr struct {
	armv6m.Instr
	Line       int
	LoopBound  int
	LoadRegion string // "asmcheck: load" annotation ("" when absent)
	succs      succSet
}

type block struct {
	start  uint32
	instrs []instr // sub-slice of the function's instrs
	succs  []*block
	preds  []*block
}

// last returns the block's final instruction.
func (b *block) last() *instr { return &b.instrs[len(b.instrs)-1] }

type fn struct {
	addr      uint32
	name      string
	entry     *block
	instrs    []instr  // every reachable instruction, in address order
	blockList []*block // in start-address order, each owning a run of instrs
	callSites []uint32 // BL instruction addresses
	callees   []uint32 // BL target addresses (parallel to callSites)
}

// succSet is an instruction's successor addresses within its function:
// at most a branch target and a fallthrough, in that order.
type succSet struct {
	addr [2]uint32
	n    int
}

func (s *succSet) add(a uint32) { s.addr[s.n] = a; s.n++ }

func (s *succSet) list() []uint32 { return s.addr[:s.n] }

// fallsThrough reports whether in's only successor is the next
// instruction.
func (in *instr) fallsThrough() bool {
	return in.succs.n == 1 && in.succs.addr[0] == in.Addr+uint32(in.Size)
}

// cfgScratch is the checker's CFG recovery state, indexed by code
// halfword and shared by every function: buildFn resets what it
// touched before returning.
type cfgScratch struct {
	seen    []bool  // the current function decoded an instruction here
	leader  []bool  // a block of the current function starts here
	blockAt []int32 // 1 + index of the block starting here; 0 = none
	// arena is spare capacity, sized to the program's instruction
	// count, that each function's instrs are carved from in turn.
	arena []instr
}

// hw maps a code address to its halfword index in the program image, or
// -1 when no instruction can be decoded there.
func (ck *checker) hw(addr uint32) int {
	off := int64(addr) - int64(ck.p.Base)
	if addr&1 != 0 || off < 0 || off+2 > int64(len(ck.p.Code)) {
		return -1
	}
	return int(off >> 1)
}

// decodeAt decodes the instruction at halfword index h.
func (ck *checker) decodeAt(h int) armv6m.Instr {
	code := ck.p.Code
	off := 2 * h
	op := uint16(code[off]) | uint16(code[off+1])<<8
	var lo uint16
	if off+4 <= len(code) {
		lo = uint16(code[off+2]) | uint16(code[off+3])<<8
	}
	return armv6m.Decode(ck.p.Base+uint32(off), op, lo)
}

// succsOf lists the successor addresses of in within its function,
// recording control-flow violations for unanalyzable transfers. BL falls
// through (the call edge is handled interprocedurally).
func (ck *checker) succsOf(f *fn, in *instr) succSet {
	var ss succSet
	next := in.Addr + uint32(in.Size)
	fallthrough_ := func() {
		if next >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "execution falls past the end of the code region (0x%08x)", ck.cfg.CodeLimit)
			return
		}
		ss.add(next)
	}
	branch := func(target uint32) {
		if target < ck.p.Base || target >= ck.cfg.CodeLimit {
			ck.violate(CodeCFGFallthrough, f, in.Addr, "branch target 0x%08x outside the code region", target)
			return
		}
		ss.add(target)
	}
	switch in.Kind {
	case armv6m.KindBranch:
		branch(in.Target)
	case armv6m.KindBranchCond:
		branch(in.Target)
		fallthrough_()
	case armv6m.KindBL:
		fallthrough_()
	case armv6m.KindBX, armv6m.KindBKPT, armv6m.KindPop:
		if in.Kind == armv6m.KindPop && !in.Terminator() {
			fallthrough_()
		}
	case armv6m.KindBLX:
		ck.violate(CodeCFGIndirect, f, in.Addr, "indirect call (blx) is not analyzable")
	case armv6m.KindSVC, armv6m.KindUDF:
		ck.violate(CodeCFGTrap, f, in.Addr, "reachable trap instruction (%s)", in.Text)
	case armv6m.KindUnknown:
		ck.violate(CodeDecodeUnknown, f, in.Addr, "reachable halfword 0x%04x does not decode (data in the instruction stream?)", in.Op)
	case armv6m.KindALU:
		if in.WritesPC {
			ck.violate(CodeCFGIndirect, f, in.Addr, "PC-writing ALU instruction (%s) is not analyzable", in.Text)
			return ss
		}
		fallthrough_()
	default:
		fallthrough_()
	}
	return ss
}

// discover builds CFGs for the given roots and, transitively, every BL
// target they reach.
func (ck *checker) discover(roots []uint32) {
	n := len(ck.p.Code) / 2
	ck.cfgs = cfgScratch{
		seen: make([]bool, n), leader: make([]bool, n), blockAt: make([]int32, n),
		arena: make([]instr, 0, len(ck.p.Instrs)),
	}
	queue := append([]uint32{}, roots...)
	for len(queue) > 0 {
		addr := queue[0]
		queue = queue[1:]
		if _, done := ck.funcs[addr]; done {
			continue
		}
		f := ck.buildFn(addr)
		ck.funcs[addr] = f
		ck.funcOrder = append(ck.funcOrder, addr)
		queue = append(queue, f.callees...)
	}
}

// buildFn decodes the function at addr and partitions it into blocks:
// a depth-first traversal decodes every reachable instruction once and
// marks block leaders, then one sweep over the instructions in address
// order cuts the blocks.
func (ck *checker) buildFn(addr uint32) *fn {
	f := &fn{addr: addr, name: ck.funcName(addr)}
	s := &ck.cfgs
	entry := ck.hw(addr)
	if entry < 0 {
		ck.violate(CodeDecodeUnknown, f, addr, "function entry outside the program image")
		return f
	}
	s.leader[entry] = true
	ins := s.arena[:0] // discovery order, which is address order for straight-line code
	ordered := true
	work := []uint32{addr}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		h := ck.hw(a)
		if h < 0 {
			ck.violate(CodeDecodeUnknown, f, a, "control flow leaves the program image")
			continue
		}
		if s.seen[h] {
			continue
		}
		s.seen[h] = true
		if n := len(ins); n > 0 && ins[n-1].Addr > a {
			ordered = false
		}
		ins = append(ins, instr{Instr: ck.decodeAt(h)})
		in := &ins[len(ins)-1]
		in.succs = ck.succsOf(f, in)
		if in.Kind == armv6m.KindBL {
			f.callSites = append(f.callSites, a)
			f.callees = append(f.callees, in.Target)
		}
		// Any successor set other than plain fallthrough makes each
		// successor a block leader.
		if !in.fallsThrough() {
			for _, t := range in.succs.list() {
				if th := ck.hw(t); th >= 0 {
					s.leader[th] = true
				}
			}
		}
		work = append(work, in.succs.list()...)
	}
	f.instrs, s.arena = ins[:len(ins):len(ins)], ins[len(ins):]
	if !ordered {
		slices.SortFunc(f.instrs, func(a, b instr) int { return cmp.Compare(a.Addr, b.Addr) })
	}

	// Attach source metadata from the (address-ordered) program listing
	// and cut the blocks: one starts at a leader or after a gap, and one
	// ends where flow does not simply fall through to a non-leader.
	meta := ck.p.Instrs
	mi := sort.Search(len(meta), func(i int) bool { return meta[i].Addr >= f.instrs[0].Addr })
	var blocks []block
	open := false
	for i := range f.instrs {
		in := &f.instrs[i]
		for mi < len(meta) && meta[mi].Addr < in.Addr {
			mi++
		}
		if mi < len(meta) && meta[mi].Addr == in.Addr {
			in.Line, in.LoopBound, in.LoadRegion = meta[mi].Line, meta[mi].LoopBound, meta[mi].LoadRegion
		}
		h := ck.hw(in.Addr)
		if !open || s.leader[h] || !contiguous(&f.instrs[i-1], in.Addr) {
			blocks = append(blocks, block{start: in.Addr})
			s.blockAt[h] = int32(len(blocks))
		}
		b := &blocks[len(blocks)-1]
		b.instrs = f.instrs[i-len(b.instrs) : i+1 : i+1]
		open = in.fallsThrough()
		if th := ck.hw(in.succs.addr[0]); open && th >= 0 && s.leader[th] {
			open = false
		}
	}
	f.blockList = make([]*block, len(blocks))
	for i := range blocks {
		f.blockList[i] = &blocks[i]
	}
	// Wire edges from each block's final instruction.
	for _, b := range f.blockList {
		for _, t := range b.last().succs.list() {
			// A successor that is not a block start was never decoded
			// (it left the image): the violation is already recorded.
			th := ck.hw(t)
			if th < 0 || s.blockAt[th] == 0 {
				continue
			}
			tb := f.blockList[s.blockAt[th]-1]
			b.succs = append(b.succs, tb)
			tb.preds = append(tb.preds, b)
		}
	}
	f.entry = f.blockList[s.blockAt[entry]-1]

	// Every halfword the function touched holds one of its instructions.
	for i := range f.instrs {
		h := ck.hw(f.instrs[i].Addr)
		s.seen[h], s.leader[h], s.blockAt[h] = false, false, 0
	}
	return f
}

// contiguous reports whether a directly follows instruction l.
func contiguous(l *instr, a uint32) bool {
	return l.Addr+uint32(l.Size) == a
}

// crossFunctionEdges flags control transfers (branches or fallthrough)
// that land on another function's entry: a missing return falls through
// into the next kernel, and a tail jump bypasses the AAPCS contract.
func (ck *checker) crossFunctionEdges() {
	for _, addr := range ck.funcOrder {
		f := ck.funcs[addr]
		for _, b := range f.blockList {
			for _, s := range b.succs {
				if s.start != f.addr {
					if other, isFn := ck.funcs[s.start]; isFn {
						ck.violate(CodeCFGFallthrough, f, b.last().Addr,
							"control flow crosses into function %s without a call", other.name)
					}
				}
			}
		}
	}
}
