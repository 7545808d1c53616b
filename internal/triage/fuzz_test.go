package triage

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRepro throws arbitrary bytes at the repro-file decoder. It must
// never panic, and anything it accepts must re-encode and re-parse to the
// same identity — a corrupted file can only surface as an error, never as a
// replay against the wrong target.
func FuzzParseRepro(f *testing.F) {
	valid, err := (&Repro{
		OS: "rtthread", Board: "stm32h745",
		Cluster: "frame:BusFault:0123456789abcdef",
		Sig:     "BusFault@rt_event_send",
		Prog:    []byte(`{"calls":[{"name":"rt_event_send","args":[{"kind":"const","val":1}]}]}`),
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"os":"rtthread","board":"x","sig":"s","prog":{}}`))
	f.Add([]byte(`not json`))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseRepro(data)
		if err != nil {
			return
		}
		if r.OS == "" || r.Board == "" || len(r.Prog) == 0 {
			t.Fatalf("accepted repro without target identity or program: %+v", r)
		}
		out, err := r.Encode()
		if err != nil {
			t.Fatalf("accepted repro does not re-encode: %v", err)
		}
		r2, err := ParseRepro(out)
		if err != nil {
			t.Fatalf("re-encoded repro does not re-parse: %v", err)
		}
		if r2.OS != r.OS || r2.Board != r.Board || r2.Cluster != r.Cluster || r2.Sig != r.Sig {
			t.Fatalf("identity changed across re-encode:\n%+v\n%+v", r, r2)
		}
		// Encode re-indents the embedded program and HTML-escapes &, < and
		// >, so compare the decoded values, not the bytes.
		if pa, pb := decodeValue(t, r.Prog), decodeValue(t, r2.Prog); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("program changed across re-encode: %s -> %s", r.Prog, r2.Prog)
		}
	})
}

// decodeValue decodes one JSON value, keeping numbers as their literal text.
func decodeValue(t *testing.T, raw []byte) any {
	t.Helper()
	d := json.NewDecoder(bytes.NewReader(raw))
	d.UseNumber()
	var v any
	if err := d.Decode(&v); err != nil {
		t.Fatalf("program %s does not decode: %v", raw, err)
	}
	return v
}
