package server

import (
	"encoding/json"
	"reflect"
	"testing"

	eof "github.com/eof-fuzz/eof"
)

// FuzzDecodeSpec feeds arbitrary bytes to the daemon's campaign-spec decoder,
// which reads untrusted request bodies. It must never panic, and must reject
// a bad spec as a client error (4xx), never an internal one. An accepted spec
// occupies at least one board, exactly the hardware boards of the layout its
// campaign runs on, and decodes to the same spec after a JSON round trip.
func FuzzDecodeSpec(f *testing.F) {
	for _, o := range []eof.Options{
		{OS: "freertos"},
		{OS: "rtthread", Board: "esp32c3", Shards: 3, Spares: 1, Triage: true},
		{OS: "zephyr", Shards: 1, Spares: 2, Triage: true},
		{OS: "nuttx", Shards: -4, Tiers: true, EmulShards: 2, Triage: true},
		{OS: "pokos", CorpusDir: "/tmp/x"},
	} {
		raw, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"OS":"freertos","Nope":1}`))
	f.Add([]byte(`{"OS":"freertos","Shards":9223372036854775807,"Spares":9223372036854775807}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		opts, boards, err := decodeSpec(raw)
		if err != nil {
			if !IsBadRequest(err) {
				t.Fatalf("spec %q rejected with a non-client error: %v", raw, err)
			}
			return
		}
		if boards < 1 || boards != opts.Layout().HardwareBoards() {
			t.Fatalf("spec %q: footprint %d, layout %+v", raw, boards, opts.Layout())
		}
		again, err := json.Marshal(opts)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		opts2, boards2, err := decodeSpec(again)
		if err != nil || boards2 != boards || !reflect.DeepEqual(opts2, opts) {
			t.Fatalf("spec %q changed over a round trip: %s -> %+v, %d boards, %v", raw, again, opts2, boards2, err)
		}
	})
}
