package armv6m_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/neuro-c/neuroc/internal/armv6m"
)

// decodeTextSHA256 is the SHA-256 of every rendering decodeTextStream
// produces. It pins the disassembly text byte for byte (certificates,
// listings, and violation messages all embed it); change it only for an
// intended change of the rendering.
const decodeTextSHA256 = "e135b7bb6527a18915e5a6226d2d558446a0876b727dbf277cd3d31ab0e90cc0"

// decodeTextStream renders Decode's text for every first halfword, at
// a word-aligned and a halfword-aligned address (PC-relative targets
// differ), against second halfwords covering BL encodings with both
// signs and non-BL suffixes.
func decodeTextStream() []byte {
	seconds := []uint16{0x0000, 0xf800, 0xf801, 0xffff, 0xd7ff, 0xe800, 0xf8ff, 0xefff}
	var out []byte
	for _, addr := range []uint32{armv6m.FlashBase + 0x100, armv6m.FlashBase + 0x2ffe} {
		for op := 0; op < 1<<16; op++ {
			for _, lo := range seconds {
				out = append(out, armv6m.Decode(addr, uint16(op), lo).Text...)
				out = append(out, '\n')
			}
		}
	}
	return out
}

func TestDecodeTextGolden(t *testing.T) {
	got := fmt.Sprintf("%x", sha256.Sum256(decodeTextStream()))
	if got != decodeTextSHA256 {
		t.Errorf("Decode text rendering changed: sha256 %s, want %s", got, decodeTextSHA256)
	}
}
