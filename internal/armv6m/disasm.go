package armv6m

import "strconv"

// Disassemble renders the instruction whose first halfword is op (and,
// for 32-bit BL encodings, second halfword lo) at address addr. size is
// 2 or 4 bytes. Unknown encodings render as ".hword 0x...." so listings
// never fail on data embedded in code. It is a thin wrapper over Decode,
// which exposes the same decode machine-readably.
func Disassemble(addr uint32, op, lo uint16) (text string, size int) {
	in := Decode(addr, op, lo)
	return in.Text, in.Size
}

func imm5Shift(o uint32) uint32 {
	imm := o >> 6 & 0x1f
	if imm == 0 {
		return 32
	}
	return imm
}

// regNames are the assembler names of r0-r15.
var regNames = [16]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7",
	"r8", "r9", "r10", "r11", "r12", "sp", "lr", "pc"}

func regName(n uint32) string { return regNames[n&15] }

func regList(bits uint32, extra bool, extraName string) string {
	var buf [40]byte
	out := buf[:0]
	for i := 0; i < 8; i++ {
		if bits&(1<<i) != 0 {
			if len(out) > 0 {
				out = append(out, ", "...)
			}
			out = append(out, regNames[i]...)
		}
	}
	if extra {
		if len(out) > 0 {
			out = append(out, ", "...)
		}
		out = append(out, extraName...)
	}
	return string(out)
}

// render formats one disassembly line from a fmt-style format. It
// implements exactly the verbs Decode's formats use, with fmt's output:
// %s (string), %d (any integer), and the fixed-width hex forms %04x
// (halfwords) and %08x (words), whose values always fit the width.
// Without fmt, the result string is the only allocation of most
// decodes.
func render(format string, args ...any) string {
	var buf [48]byte
	b := buf[:0]
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			b = append(b, format[i])
			continue
		}
		arg := args[0]
		args = args[1:]
		i++
		switch format[i] {
		case 's':
			b = append(b, arg.(string)...)
		case 'd':
			b = strconv.AppendInt(b, intArg(arg), 10)
		case '0': // %0Nx
			v := uint32(intArg(arg))
			for shift := 4 * int(format[i+1]-'1'); shift >= 0; shift -= 4 {
				b = append(b, "0123456789abcdef"[v>>uint(shift)&0xf])
			}
			i += 2
		}
	}
	return string(b)
}

// intArg widens one of Decode's integer operand types.
func intArg(a any) int64 {
	switch v := a.(type) {
	case int8:
		return int64(v)
	case int32:
		return int64(v)
	case uint16:
		return int64(v)
	case uint32:
		return int64(v)
	}
	//neurolint:allow panics (programming error: Decode's own formats pass only the types above)
	panic("armv6m: render: unsupported operand type")
}
