package thumb

import "strings"

// parseReg parses a register name; returns -1 if not a register.
func parseReg(s string) int {
	s = strings.ToLower(strings.TrimSpace(s))
	switch s {
	case "sp", "r13":
		return 13
	case "lr", "r14":
		return 14
	case "pc", "r15":
		return 15
	case "ip", "r12":
		return 12
	}
	if len(s) >= 2 && s[0] == 'r' {
		n := 0
		for _, r := range s[1:] {
			if r < '0' || r > '9' {
				return -1
			}
			n = n*10 + int(r-'0')
		}
		if n <= 15 {
			return n
		}
	}
	return -1
}

// parseImm parses an immediate operand (with optional leading '#'),
// allowing symbol expressions.
func (a *assembler) parseImm(s string, line int) (int64, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "#")
	v, err := a.eval(s, line)
	if err != nil {
		return 0, err
	}
	return int64(int32(v)), nil
}

// parseRegList parses "{r0, r2-r4, lr}".
func parseRegList(s string, line int) (uint32, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") || !strings.HasSuffix(s, "}") {
		return 0, errf(line, "expected register list, got %q", s)
	}
	var list uint32
	for _, part := range strings.Split(s[1:len(s)-1], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i := strings.IndexByte(part, '-'); i >= 0 {
			lo := parseReg(part[:i])
			hi := parseReg(part[i+1:])
			if lo < 0 || hi < 0 || lo > hi {
				return 0, errf(line, "bad register range %q", part)
			}
			for r := lo; r <= hi; r++ {
				list |= 1 << uint(r)
			}
			continue
		}
		r := parseReg(part)
		if r < 0 {
			return 0, errf(line, "bad register %q in list", part)
		}
		list |= 1 << uint(r)
	}
	if list == 0 {
		return 0, errf(line, "empty register list")
	}
	return list, nil
}

// memOperand is a parsed "[rn, ...]" operand.
type memOperand struct {
	base   int
	offReg int   // -1 when immediate form
	offImm int64 // valid when offReg == -1
}

func (a *assembler) parseMem(s string, line int) (memOperand, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return memOperand{}, errf(line, "expected memory operand, got %q", s)
	}
	first, second, hasOff := strings.Cut(s[1:len(s)-1], ",")
	m := memOperand{offReg: -1}
	m.base = parseReg(first)
	if m.base < 0 {
		return memOperand{}, errf(line, "bad base register in %q", s)
	}
	if !hasOff {
		return m, nil
	}
	if strings.Contains(second, ",") {
		return memOperand{}, errf(line, "bad memory operand %q", s)
	}
	second = strings.TrimSpace(second)
	if r := parseReg(second); r >= 0 {
		m.offReg = r
		return m, nil
	}
	imm, err := a.parseImm(second, line)
	if err != nil {
		return memOperand{}, err
	}
	m.offImm = imm
	return m, nil
}

var condCodes = map[string]uint32{
	"eq": 0x0, "ne": 0x1, "cs": 0x2, "hs": 0x2, "cc": 0x3, "lo": 0x3,
	"mi": 0x4, "pl": 0x5, "vs": 0x6, "vc": 0x7, "hi": 0x8, "ls": 0x9,
	"ge": 0xa, "lt": 0xb, "gt": 0xc, "le": 0xd,
}

var dpOpcodes = map[string]uint32{
	"ands": 0b0000, "eors": 0b0001, "adcs": 0b0101, "sbcs": 0b0110,
	"tst": 0b1000, "cmn": 0b1011, "orrs": 0b1100, "muls": 0b1101,
	"bics": 0b1110, "mvns": 0b1111, "rors": 0b0111,
}

func lowReg(r int) bool { return r >= 0 && r <= 7 }

// encodeInstr encodes one instruction item; the low 16 bits are the
// first halfword, and for 4-byte instructions the high 16 bits hold the
// second halfword.
func (a *assembler) encodeInstr(it *item) (uint32, error) {
	mn := it.mn
	args := it.args
	ln := it.line

	// Conditional branches.
	if strings.HasPrefix(mn, "b") && len(mn) == 3 {
		if cond, ok := condCodes[mn[1:]]; ok {
			if len(args) != 1 {
				return 0, errf(ln, "%s needs a target label", mn)
			}
			target, err := a.eval(args[0], ln)
			if err != nil {
				return 0, err
			}
			off := int64(target) - int64(it.addr+4)
			if off&1 != 0 || off < -256 || off > 254 {
				return 0, errf(ln, "%s target out of range (offset %d)", mn, off)
			}
			return 0b1101<<12 | cond<<8 | uint32(off>>1)&0xff, nil
		}
	}

	switch mn {
	case "nop":
		return 0xbf00, nil
	case "wfi":
		return 0xbf30, nil
	case "wfe":
		return 0xbf20, nil
	case "sev":
		return 0xbf40, nil
	case "yield":
		return 0xbf10, nil

	case "cpsid":
		if len(args) != 1 || strings.ToLower(args[0]) != "i" {
			return 0, errf(ln, "cpsid supports only the i flag")
		}
		return 0xb672, nil
	case "cpsie":
		if len(args) != 1 || strings.ToLower(args[0]) != "i" {
			return 0, errf(ln, "cpsie supports only the i flag")
		}
		return 0xb662, nil

	case "bkpt":
		imm := int64(0)
		if len(args) == 1 {
			v, err := a.parseImm(args[0], ln)
			if err != nil {
				return 0, err
			}
			imm = v
		}
		if imm < 0 || imm > 255 {
			return 0, errf(ln, "bkpt immediate out of range")
		}
		return 0xbe00 | uint32(imm), nil

	case "b":
		if len(args) != 1 {
			return 0, errf(ln, "b needs a target label")
		}
		target, err := a.eval(args[0], ln)
		if err != nil {
			return 0, err
		}
		off := int64(target) - int64(it.addr+4)
		if off&1 != 0 || off < -2048 || off > 2046 {
			return 0, errf(ln, "b target out of range (offset %d)", off)
		}
		return 0b11100<<11 | uint32(off>>1)&0x7ff, nil

	case "bl":
		if len(args) != 1 {
			return 0, errf(ln, "bl needs a target label")
		}
		target, err := a.eval(args[0], ln)
		if err != nil {
			return 0, err
		}
		off := int64(target) - int64(it.addr+4)
		if off&1 != 0 || off < -(1<<24) || off >= 1<<24 {
			return 0, errf(ln, "bl target out of range (offset %d)", off)
		}
		o := uint32(off)
		s := (o >> 24) & 1
		i1 := (o >> 23) & 1
		i2 := (o >> 22) & 1
		imm10 := (o >> 12) & 0x3ff
		imm11 := (o >> 1) & 0x7ff
		j1 := (^(i1 ^ s)) & 1
		j2 := (^(i2 ^ s)) & 1
		hw1 := 0b11110<<11 | s<<10 | imm10
		hw2 := 0b11<<14 | j1<<13 | 1<<12 | j2<<11 | imm11
		return hw2<<16 | hw1, nil

	case "bx", "blx":
		if len(args) != 1 {
			return 0, errf(ln, "%s needs a register", mn)
		}
		rm := parseReg(args[0])
		if rm < 0 {
			return 0, errf(ln, "%s: bad register %q", mn, args[0])
		}
		enc := uint32(0b010001_11) << 8
		if mn == "blx" {
			enc |= 1 << 7
		}
		return enc | uint32(rm)<<3, nil

	case "movs":
		if len(args) != 2 {
			return 0, errf(ln, "movs needs 2 operands")
		}
		rd := parseReg(args[0])
		if rm := parseReg(args[1]); rm >= 0 {
			if !lowReg(rd) || !lowReg(rm) {
				return 0, errf(ln, "movs register form needs low registers")
			}
			return uint32(rm)<<3 | uint32(rd), nil // LSLS rd, rm, #0
		}
		imm, err := a.parseImm(args[1], ln)
		if err != nil {
			return 0, err
		}
		if !lowReg(rd) || imm < 0 || imm > 255 {
			return 0, errf(ln, "movs: need low register and 8-bit immediate")
		}
		return 0b00100<<11 | uint32(rd)<<8 | uint32(imm), nil

	case "mov":
		if len(args) != 2 {
			return 0, errf(ln, "mov needs 2 operands")
		}
		rd := parseReg(args[0])
		rm := parseReg(args[1])
		if rd < 0 || rm < 0 {
			return 0, errf(ln, "mov needs register operands (use movs for immediates)")
		}
		return 0b010001_10<<8 | (uint32(rd)>>3)<<7 | uint32(rm)<<3 | uint32(rd)&7, nil

	case "adds", "subs":
		return a.encodeAddSub(it)

	case "add", "sub":
		return a.encodeAddSubWide(it)

	case "rsbs", "neg", "negs":
		if len(args) < 2 {
			return 0, errf(ln, "%s needs rd, rm", mn)
		}
		rd, rm := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rd) || !lowReg(rm) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		return 0b010000<<10 | 0b1001<<6 | uint32(rm)<<3 | uint32(rd), nil

	case "cmp":
		if len(args) != 2 {
			return 0, errf(ln, "cmp needs 2 operands")
		}
		rn := parseReg(args[0])
		if rm := parseReg(args[1]); rm >= 0 {
			if lowReg(rn) && lowReg(rm) {
				return 0b010000<<10 | 0b1010<<6 | uint32(rm)<<3 | uint32(rn), nil
			}
			if rn < 0 {
				return 0, errf(ln, "cmp: bad register %q", args[0])
			}
			return 0b010001_01<<8 | (uint32(rn)>>3)<<7 | uint32(rm)<<3 | uint32(rn)&7, nil
		}
		imm, err := a.parseImm(args[1], ln)
		if err != nil {
			return 0, err
		}
		if !lowReg(rn) || imm < 0 || imm > 255 {
			return 0, errf(ln, "cmp: need low register and 8-bit immediate")
		}
		return 0b00101<<11 | uint32(rn)<<8 | uint32(imm), nil

	case "lsls", "lsrs", "asrs":
		return a.encodeShift(it)

	case "ands", "eors", "adcs", "sbcs", "tst", "cmn", "orrs", "muls", "bics", "mvns", "rors":
		opc := dpOpcodes[mn]
		// MULS accepts the 3-operand form "muls rd, rm, rd".
		if mn == "muls" && len(args) == 3 {
			if parseReg(args[2]) != parseReg(args[0]) {
				return 0, errf(ln, "muls: destination must equal the third operand")
			}
			args = args[:2]
		}
		if len(args) != 2 {
			return 0, errf(ln, "%s needs rdn, rm", mn)
		}
		rdn, rm := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rdn) || !lowReg(rm) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		return 0b010000<<10 | opc<<6 | uint32(rm)<<3 | uint32(rdn), nil

	case "ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh":
		return a.encodeLoadStore(it)

	case "adr":
		if len(args) != 2 {
			return 0, errf(ln, "adr needs rd, label")
		}
		rd := parseReg(args[0])
		if !lowReg(rd) {
			return 0, errf(ln, "adr needs a low register")
		}
		target, err := a.eval(args[1], ln)
		if err != nil {
			return 0, err
		}
		base := (it.addr + 4) &^ 3
		off := int64(target) - int64(base)
		if off < 0 || off > 1020 || off&3 != 0 {
			return 0, errf(ln, "adr target out of range (offset %d)", off)
		}
		return 0b10100<<11 | uint32(rd)<<8 | uint32(off>>2), nil

	case "push":
		if len(args) != 1 {
			return 0, errf(ln, "push needs a register list")
		}
		list, err := parseRegList(args[0], ln)
		if err != nil {
			return 0, err
		}
		if list&^(0xff|1<<14) != 0 {
			return 0, errf(ln, "push allows r0-r7 and lr only")
		}
		enc := uint32(0b1011_010_0)<<8 | list&0xff
		if list&(1<<14) != 0 {
			enc |= 1 << 8
		}
		return enc, nil

	case "pop":
		if len(args) != 1 {
			return 0, errf(ln, "pop needs a register list")
		}
		list, err := parseRegList(args[0], ln)
		if err != nil {
			return 0, err
		}
		if list&^(0xff|1<<15) != 0 {
			return 0, errf(ln, "pop allows r0-r7 and pc only")
		}
		enc := uint32(0b1011_110_0)<<8 | list&0xff
		if list&(1<<15) != 0 {
			enc |= 1 << 8
		}
		return enc, nil

	case "stmia", "stm", "ldmia", "ldm":
		if len(args) != 2 {
			return 0, errf(ln, "%s needs rn!, {list}", mn)
		}
		base := strings.TrimSuffix(strings.TrimSpace(args[0]), "!")
		rn := parseReg(base)
		if !lowReg(rn) {
			return 0, errf(ln, "%s needs a low base register", mn)
		}
		list, err := parseRegList(args[1], ln)
		if err != nil {
			return 0, err
		}
		if list&^uint32(0xff) != 0 {
			return 0, errf(ln, "%s allows r0-r7 only", mn)
		}
		enc := uint32(0b11000)<<11 | uint32(rn)<<8 | list
		if strings.HasPrefix(mn, "ldm") {
			enc |= 1 << 11
		}
		return enc, nil

	case "sxth", "sxtb", "uxth", "uxtb":
		if len(args) != 2 {
			return 0, errf(ln, "%s needs rd, rm", mn)
		}
		rd, rm := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rd) || !lowReg(rm) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		var sub uint32
		switch mn {
		case "sxth":
			sub = 0
		case "sxtb":
			sub = 1
		case "uxth":
			sub = 2
		default:
			sub = 3
		}
		return 0b1011_0010<<8 | sub<<6 | uint32(rm)<<3 | uint32(rd), nil

	case "rev", "rev16", "revsh":
		if len(args) != 2 {
			return 0, errf(ln, "%s needs rd, rm", mn)
		}
		rd, rm := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rd) || !lowReg(rm) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		var sub uint32
		switch mn {
		case "rev":
			sub = 0
		case "rev16":
			sub = 1
		default:
			sub = 3
		}
		return 0b1011_1010<<8 | sub<<6 | uint32(rm)<<3 | uint32(rd), nil

	default:
		return 0, errf(ln, "unknown mnemonic %q", mn)
	}
}

// encodeAddSub handles the flag-setting adds/subs forms.
func (a *assembler) encodeAddSub(it *item) (uint32, error) {
	mn, args, ln := it.mn, it.args, it.line
	sub := uint32(0)
	if mn == "subs" {
		sub = 1
	}
	switch len(args) {
	case 2:
		rd := parseReg(args[0])
		if !lowReg(rd) {
			return 0, errf(ln, "%s needs a low destination register", mn)
		}
		// "adds rd, rm" is "adds rd, rd, rm"; immediate is the 8-bit form.
		if rm := parseReg(args[1]); rm >= 0 {
			if !lowReg(rm) {
				return 0, errf(ln, "%s register form needs low registers", mn)
			}
			return 0b000110<<10 | sub<<9 | uint32(rm)<<6 | uint32(rd)<<3 | uint32(rd), nil
		}
		imm, err := a.parseImm(args[1], ln)
		if err != nil {
			return 0, err
		}
		if imm < 0 || imm > 255 {
			return 0, errf(ln, "%s immediate out of 8-bit range: %d", mn, imm)
		}
		base := uint32(0b00110)
		if sub == 1 {
			base = 0b00111
		}
		return base<<11 | uint32(rd)<<8 | uint32(imm), nil
	case 3:
		rd, rn := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rd) || !lowReg(rn) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		if rm := parseReg(args[2]); rm >= 0 {
			if !lowReg(rm) {
				return 0, errf(ln, "%s needs low registers", mn)
			}
			return 0b000110<<10 | sub<<9 | uint32(rm)<<6 | uint32(rn)<<3 | uint32(rd), nil
		}
		imm, err := a.parseImm(args[2], ln)
		if err != nil {
			return 0, err
		}
		if imm >= 0 && imm <= 7 {
			return 0b000111<<10 | sub<<9 | uint32(imm)<<6 | uint32(rn)<<3 | uint32(rd), nil
		}
		if rd == rn && imm >= 0 && imm <= 255 {
			base := uint32(0b00110)
			if sub == 1 {
				base = 0b00111
			}
			return base<<11 | uint32(rd)<<8 | uint32(imm), nil
		}
		return 0, errf(ln, "%s immediate out of range: %d", mn, imm)
	default:
		return 0, errf(ln, "%s needs 2 or 3 operands", mn)
	}
}

// encodeAddSubWide handles non-flag-setting add/sub: SP adjustments,
// high-register add, and "add rd, sp/pc, #imm".
func (a *assembler) encodeAddSubWide(it *item) (uint32, error) {
	mn, args, ln := it.mn, it.args, it.line
	if len(args) == 2 {
		rd := parseReg(args[0])
		if rm := parseReg(args[1]); rm >= 0 {
			if mn == "sub" {
				return 0, errf(ln, "sub register form must use subs")
			}
			if rd < 0 {
				return 0, errf(ln, "add: bad register %q", args[0])
			}
			return 0b010001_00<<8 | (uint32(rd)>>3)<<7 | uint32(rm)<<3 | uint32(rd)&7, nil
		}
		imm, err := a.parseImm(args[1], ln)
		if err != nil {
			return 0, err
		}
		if rd != 13 {
			return 0, errf(ln, "%s with immediate requires sp (use adds/subs for low registers)", mn)
		}
		if imm < 0 || imm > 508 || imm&3 != 0 {
			return 0, errf(ln, "%s sp immediate must be 0-508 and word aligned", mn)
		}
		enc := uint32(0b1011_0000)<<8 | uint32(imm>>2)
		if mn == "sub" {
			enc |= 1 << 7
		}
		return enc, nil
	}
	if len(args) == 3 {
		rd := parseReg(args[0])
		base := parseReg(args[1])
		imm, err := a.parseImm(args[2], ln)
		if err != nil {
			return 0, err
		}
		switch {
		case base == 13 && rd == 13 && mn == "add":
			if imm < 0 || imm > 508 || imm&3 != 0 {
				return 0, errf(ln, "add sp immediate must be 0-508 and word aligned")
			}
			return 0b1011_0000<<8 | uint32(imm>>2), nil
		case base == 13 && rd == 13 && mn == "sub":
			if imm < 0 || imm > 508 || imm&3 != 0 {
				return 0, errf(ln, "sub sp immediate must be 0-508 and word aligned")
			}
			return 0b1011_0000<<8 | 1<<7 | uint32(imm>>2), nil
		case base == 13 && lowReg(rd) && mn == "add":
			if imm < 0 || imm > 1020 || imm&3 != 0 {
				return 0, errf(ln, "add rd, sp, #imm must be 0-1020 and word aligned")
			}
			return 0b10101<<11 | uint32(rd)<<8 | uint32(imm>>2), nil
		default:
			return 0, errf(ln, "unsupported %s form", mn)
		}
	}
	return 0, errf(ln, "%s needs 2 or 3 operands", mn)
}

// encodeShift handles lsls/lsrs/asrs in both immediate and register form.
func (a *assembler) encodeShift(it *item) (uint32, error) {
	mn, args, ln := it.mn, it.args, it.line
	var immOp, regOp uint32
	switch mn {
	case "lsls":
		immOp, regOp = 0b00000, 0b0010
	case "lsrs":
		immOp, regOp = 0b00001, 0b0011
	default: // asrs
		immOp, regOp = 0b00010, 0b0100
	}
	switch len(args) {
	case 2: // register form: lsls rdn, rs
		rdn, rs := parseReg(args[0]), parseReg(args[1])
		if !lowReg(rdn) || !lowReg(rs) {
			return 0, errf(ln, "%s register form needs low registers", mn)
		}
		return 0b010000<<10 | regOp<<6 | uint32(rs)<<3 | uint32(rdn), nil
	case 3:
		rd, rm := parseReg(args[0]), parseReg(args[1])
		if rs := parseReg(args[2]); rs >= 0 {
			if !lowReg(rd) || !lowReg(rm) || !lowReg(rs) {
				return 0, errf(ln, "%s register form needs low registers", mn)
			}
			if rd != rm {
				return 0, errf(ln, "%s rd, rm, rs requires rd == rm", mn)
			}
			return 0b010000<<10 | regOp<<6 | uint32(rs)<<3 | uint32(rd), nil
		}
		imm, err := a.parseImm(args[2], ln)
		if err != nil {
			return 0, err
		}
		if !lowReg(rd) || !lowReg(rm) {
			return 0, errf(ln, "%s needs low registers", mn)
		}
		if imm < 0 || imm > 31 || (imm == 0 && mn != "lsls") {
			return 0, errf(ln, "%s shift amount out of range: %d", mn, imm)
		}
		return immOp<<11 | uint32(imm)<<6 | uint32(rm)<<3 | uint32(rd), nil
	default:
		return 0, errf(ln, "%s needs 2 or 3 operands", mn)
	}
}

// encodeLoadStore handles all ldr/str variants including the literal
// pool and pc-relative forms.
func (a *assembler) encodeLoadStore(it *item) (uint32, error) {
	mn, args, ln := it.mn, it.args, it.line
	if len(args) != 2 {
		return 0, errf(ln, "%s needs 2 operands", mn)
	}
	rd := parseReg(args[0])
	if !lowReg(rd) {
		return 0, errf(ln, "%s needs a low data register", mn)
	}

	// Literal pool: "ldr rd, =expr".
	if it.lit != nil {
		if mn != "ldr" {
			return 0, errf(ln, "only ldr supports =literal")
		}
		base := (it.addr + 4) &^ 3
		off := int64(it.lit.addr) - int64(base)
		if off < 0 {
			return 0, errf(ln, "literal pool precedes its use (offset %d); add a .pool after this instruction", off)
		}
		if off > 1020 || off&3 != 0 {
			return 0, errf(ln, "literal out of range (offset %d); add a nearer .pool", off)
		}
		return 0b01001<<11 | uint32(rd)<<8 | uint32(off>>2), nil
	}

	// PC-relative label form: "ldr rd, label".
	if !strings.HasPrefix(strings.TrimSpace(args[1]), "[") {
		if mn != "ldr" {
			return 0, errf(ln, "%s supports only [reg] addressing", mn)
		}
		target, err := a.eval(args[1], ln)
		if err != nil {
			return 0, err
		}
		base := (it.addr + 4) &^ 3
		off := int64(target) - int64(base)
		if off < 0 || off > 1020 || off&3 != 0 {
			return 0, errf(ln, "ldr label out of range (offset %d)", off)
		}
		return 0b01001<<11 | uint32(rd)<<8 | uint32(off>>2), nil
	}

	m, err := a.parseMem(args[1], ln)
	if err != nil {
		return 0, err
	}

	// Register-offset form.
	if m.offReg >= 0 {
		if !lowReg(m.base) || !lowReg(m.offReg) {
			return 0, errf(ln, "%s register-offset form needs low registers", mn)
		}
		var opc uint32
		switch mn {
		case "str":
			opc = 0b000
		case "strh":
			opc = 0b001
		case "strb":
			opc = 0b010
		case "ldrsb":
			opc = 0b011
		case "ldr":
			opc = 0b100
		case "ldrh":
			opc = 0b101
		case "ldrb":
			opc = 0b110
		case "ldrsh":
			opc = 0b111
		}
		return 0b0101<<12 | opc<<9 | uint32(m.offReg)<<6 | uint32(m.base)<<3 | uint32(rd), nil
	}

	// SP-relative word form.
	if m.base == 13 {
		if mn != "ldr" && mn != "str" {
			return 0, errf(ln, "%s does not support sp-relative addressing", mn)
		}
		if m.offImm < 0 || m.offImm > 1020 || m.offImm&3 != 0 {
			return 0, errf(ln, "sp offset must be 0-1020 and word aligned")
		}
		base := uint32(0b10010)
		if mn == "ldr" {
			base = 0b10011
		}
		return base<<11 | uint32(rd)<<8 | uint32(m.offImm>>2), nil
	}

	if !lowReg(m.base) {
		return 0, errf(ln, "%s needs a low base register", mn)
	}

	switch mn {
	case "ldr", "str":
		if m.offImm < 0 || m.offImm > 124 || m.offImm&3 != 0 {
			return 0, errf(ln, "%s word offset must be 0-124 and word aligned, got %d", mn, m.offImm)
		}
		base := uint32(0b01100)
		if mn == "ldr" {
			base = 0b01101
		}
		return base<<11 | uint32(m.offImm>>2)<<6 | uint32(m.base)<<3 | uint32(rd), nil
	case "ldrb", "strb":
		if m.offImm < 0 || m.offImm > 31 {
			return 0, errf(ln, "%s byte offset must be 0-31, got %d", mn, m.offImm)
		}
		base := uint32(0b01110)
		if mn == "ldrb" {
			base = 0b01111
		}
		return base<<11 | uint32(m.offImm)<<6 | uint32(m.base)<<3 | uint32(rd), nil
	case "ldrh", "strh":
		if m.offImm < 0 || m.offImm > 62 || m.offImm&1 != 0 {
			return 0, errf(ln, "%s halfword offset must be 0-62 and even, got %d", mn, m.offImm)
		}
		base := uint32(0b10000)
		if mn == "ldrh" {
			base = 0b10001
		}
		return base<<11 | uint32(m.offImm>>1)<<6 | uint32(m.base)<<3 | uint32(rd), nil
	default:
		return 0, errf(ln, "%s supports register-offset addressing only", mn)
	}
}
