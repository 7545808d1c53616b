// Package fsb defines the fault status block: a small record the kernel's
// exception path writes into a well-known RAM address, which the host's
// exception monitor reads over the debug link to attribute a crash (fault
// class, faulting PC, message, backtrace). This stands in for reading the
// fault registers and unwinding the stack through GDB on real hardware.
package fsb

import (
	"encoding/binary"
	"fmt"

	"github.com/eof-fuzz/eof/internal/cpu"
)

// Magic marks a valid fault record.
const Magic = 0xFA17B10C

// MaxBytes is the encoded size cap; it must fit board.FSBSize.
const MaxBytes = 704

// Encode's truncation limits: message bytes, frames, and bytes per frame
// file or function name.
const (
	maxMsg    = 160
	maxFrames = 8
	maxStr    = 24
)

// Encode renders the fault into buf (which must be at least MaxBytes long)
// and returns the encoded length. Long messages and deep backtraces are
// truncated, as a fixed on-target buffer forces.
func Encode(f *cpu.Fault, buf []byte) int {
	if len(buf) < MaxBytes {
		panic(fmt.Sprintf("fsb: buffer %d smaller than %d", len(buf), MaxBytes))
	}
	msg := f.Msg
	if len(msg) > maxMsg {
		msg = msg[:maxMsg]
	}
	frames := f.Frames
	if len(frames) > maxFrames {
		frames = frames[:maxFrames]
	}
	// Worst case: 18 + 160 + 1 + 8*(1+24+1+24+4) = 611 <= MaxBytes.
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.Kind))
	binary.LittleEndian.PutUint64(buf[8:], f.PC)
	binary.LittleEndian.PutUint16(buf[16:], uint16(len(msg)))
	off := 18
	off += copy(buf[off:], msg)
	buf[off] = byte(len(frames))
	off++
	for _, fr := range frames {
		off += putStr(buf[off:], fr.File, maxStr)
		off += putStr(buf[off:], fr.Func, maxStr)
		binary.LittleEndian.PutUint32(buf[off:], uint32(fr.Line))
		off += 4
	}
	return off
}

// Clear invalidates the record (boot and the agent's per-case setup do this).
func Clear(buf []byte) {
	if len(buf) >= 4 {
		binary.LittleEndian.PutUint32(buf[0:], 0)
	}
}

// Decode parses a fault record read from target RAM. It returns nil (no
// error) when the block holds no valid record.
func Decode(raw []byte) (*cpu.Fault, error) {
	if len(raw) < 19 {
		return nil, fmt.Errorf("fsb: block too short (%d bytes)", len(raw))
	}
	if binary.LittleEndian.Uint32(raw[0:]) != Magic {
		return nil, nil
	}
	f := &cpu.Fault{
		Kind: cpu.FaultKind(binary.LittleEndian.Uint32(raw[4:])),
		PC:   binary.LittleEndian.Uint64(raw[8:]),
	}
	msgLen := int(binary.LittleEndian.Uint16(raw[16:]))
	off := 18
	if off+msgLen+1 > len(raw) {
		return nil, fmt.Errorf("fsb: truncated message")
	}
	f.Msg = string(raw[off : off+msgLen])
	off += msgLen
	nframes := int(raw[off])
	off++
	if nframes > maxFrames {
		return nil, fmt.Errorf("fsb: %d frames exceeds max", nframes)
	}
	for i := 0; i < nframes; i++ {
		file, n, err := getStr(raw[off:])
		if err != nil {
			return nil, err
		}
		off += n
		fn, n, err := getStr(raw[off:])
		if err != nil {
			return nil, err
		}
		off += n
		if off+4 > len(raw) {
			return nil, fmt.Errorf("fsb: truncated frame line")
		}
		line := int(binary.LittleEndian.Uint32(raw[off:]))
		off += 4
		f.Frames = append(f.Frames, cpu.Frame{File: file, Func: fn, Line: line})
	}
	return f, nil
}

func putStr(buf []byte, s string, max int) int {
	if len(s) > max {
		s = s[len(s)-max:] // keep the tail: file basenames matter most
	}
	buf[0] = byte(len(s))
	return 1 + copy(buf[1:], s)
}

func getStr(raw []byte) (string, int, error) {
	if len(raw) < 1 {
		return "", 0, fmt.Errorf("fsb: truncated string")
	}
	n := int(raw[0])
	if 1+n > len(raw) {
		return "", 0, fmt.Errorf("fsb: truncated string body")
	}
	return string(raw[1 : 1+n]), 1 + n, nil
}
