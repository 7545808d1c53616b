package flash

import (
	"encoding/binary"
	"fmt"
)

// Image magics, one per partition role.
const (
	MagicBoot   = 0x45304642 // "EOFB"
	MagicKernel = 0x45304B42 // "EOFK"
	MagicData   = 0x45304442 // "EOFD"
)

// Image is the firmware image format flashed into a partition. Boot parses
// and validates it; the restoration module regenerates and reflashes it. The
// payload is a deterministic pseudo-code section whose size models the real
// binary size, so instrumentation overhead (paper §5.5.1) is measurable as an
// actual image-size difference.
type Image struct {
	Magic        uint32
	OS           string
	BuildID      uint64
	Instrumented bool
	CodeSize     uint32 // pseudo-code section size in bytes
	Entry        uint64 // entry point address for the boot report
}

const imageHeaderFixed = 4 + 2 + 8 + 1 + 4 + 8 // magic, oslen, buildid, flags, codesize, entry

// Serialize renders the image: header, OS name, code section, trailing CRC32
// over everything before the CRC.
func (im *Image) Serialize() []byte {
	if len(im.OS) > 0xFFFF {
		panic("flash: OS name too long")
	}
	out := make([]byte, im.TotalSize())
	binary.LittleEndian.PutUint32(out[0:], im.Magic)
	binary.LittleEndian.PutUint16(out[4:], uint16(len(im.OS)))
	binary.LittleEndian.PutUint64(out[6:], im.BuildID)
	if im.Instrumented {
		out[14] = 1
	}
	binary.LittleEndian.PutUint32(out[15:], im.CodeSize)
	binary.LittleEndian.PutUint64(out[19:], im.Entry)
	copy(out[imageHeaderFixed:], im.OS)
	fillPseudoCode(out[imageHeaderFixed+len(im.OS):len(out)-4], im.BuildID)
	binary.LittleEndian.PutUint32(out[len(out)-4:], CRC(out[:len(out)-4]))
	return out
}

// ParseImage validates and decodes an image from raw partition bytes. The
// slice may be longer than the image (partitions usually are); validation
// covers exactly the serialized length.
func ParseImage(raw []byte) (*Image, error) {
	if len(raw) < imageHeaderFixed+4 {
		return nil, fmt.Errorf("image: truncated header (%d bytes)", len(raw))
	}
	im := &Image{
		Magic:   binary.LittleEndian.Uint32(raw[0:]),
		BuildID: binary.LittleEndian.Uint64(raw[6:]),
	}
	switch im.Magic {
	case MagicBoot, MagicKernel, MagicData:
	default:
		return nil, fmt.Errorf("image: bad magic %#x", im.Magic)
	}
	osLen := int(binary.LittleEndian.Uint16(raw[4:]))
	im.Instrumented = raw[14] != 0
	im.CodeSize = binary.LittleEndian.Uint32(raw[15:])
	im.Entry = binary.LittleEndian.Uint64(raw[19:])
	total := imageHeaderFixed + osLen + int(im.CodeSize) + 4
	if total > len(raw) {
		return nil, fmt.Errorf("image: declared size %d exceeds partition %d", total, len(raw))
	}
	im.OS = string(raw[imageHeaderFixed : imageHeaderFixed+osLen])
	body := raw[:total-4]
	want := binary.LittleEndian.Uint32(raw[total-4:])
	if got := CRC(body); got != want {
		return nil, fmt.Errorf("image: CRC mismatch: got %#x want %#x", got, want)
	}
	return im, nil
}

// TotalSize returns the serialized length of the image in bytes.
func (im *Image) TotalSize() int {
	return imageHeaderFixed + len(im.OS) + int(im.CodeSize) + 4
}

// fillPseudoCode writes the deterministic code-section bytes into code: an
// xorshift stream seeded by the build ID, one little-endian step per 8
// bytes, so reflashing reproduces the identical image and any in-place
// corruption is detectable by CRC.
func fillPseudoCode(code []byte, seed uint64) {
	x := seed | 1
	for i := 0; i < len(code); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i+8 <= len(code) {
			binary.LittleEndian.PutUint64(code[i:], x)
			continue
		}
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], x)
		copy(code[i:], tail[:])
	}
}
