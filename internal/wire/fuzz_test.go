package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal feeds Unmarshal arbitrary mailbox bytes, which the agent
// must survive: it must not panic, and an accepted program re-marshals to
// the same bytes.
func FuzzUnmarshal(f *testing.F) {
	valid, err := sampleProg().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(valid, 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted program does not re-marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("re-marshalled %x, want %x", out, data)
		}
	})
}
