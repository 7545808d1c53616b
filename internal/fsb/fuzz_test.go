package fsb

import (
	"reflect"
	"testing"

	"github.com/eof-fuzz/eof/internal/cpu"
)

// FuzzDecode feeds Decode arbitrary fault status blocks, as a crashing
// kernel may leave one: it must not panic, and an accepted record within
// Encode's limits must survive a re-encode unchanged.
func FuzzDecode(f *testing.F) {
	valid := make([]byte, MaxBytes)
	Encode(&cpu.Fault{
		Kind:   cpu.FaultBus,
		PC:     0x0800_4242,
		Msg:    "wild pointer dereference",
		Frames: []cpu.Frame{{File: "serial.c", Func: "rt_serial_write", Line: 917}},
	}, valid)
	f.Add(valid)
	f.Add(valid[:40])
	f.Add(make([]byte, 19))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := Decode(raw)
		if err != nil || got == nil || len(got.Msg) > maxMsg {
			return
		}
		for _, fr := range got.Frames {
			if len(fr.File) > maxStr || len(fr.Func) > maxStr {
				return
			}
		}
		buf := make([]byte, MaxBytes)
		Encode(got, buf)
		again, err := Decode(buf)
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("re-encoded record decodes to %+v, %v; want %+v", again, err, got)
		}
	})
}
