package cov

import (
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds Decode arbitrary coverage-buffer snapshots, as a
// crashing kernel may leave one: it must not panic, and an accepted buffer
// holds exactly its count of entries, within its capacity.
func FuzzDecode(f *testing.F) {
	ram := make([]byte, BufferBytes(8))
	r := NewRuntime(ram, 8)
	for pc := uint64(0x800); pc < 0x800+12*4; pc += 4 {
		r.TracePC(pc)
	}
	f.Add(ram)
	f.Add(ram[:headerSize+4])
	f.Add(ram[:headerSize-1])
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, _, err := Decode(raw)
		if err != nil {
			return
		}
		count := binary.LittleEndian.Uint32(raw[4:])
		capacity := binary.LittleEndian.Uint32(raw[8:])
		if uint64(len(entries)) != uint64(count) || count > capacity {
			t.Fatalf("accepted %d entries for count %d, capacity %d", len(entries), count, capacity)
		}
	})
}
