package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testMap(t *testing.T) *Map {
	t.Helper()
	m := NewMap()
	m.MustAdd(NewRegion("flash", 0x0800_0000, 0x1000, RX))
	m.MustAdd(NewRegion("ram", 0x2000_0000, 0x1000, RW))
	return m
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := testMap(t)
	data := []byte{1, 2, 3, 4, 5}
	if err := m.Write(0x2000_0010, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(0x2000_0010, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %v want %v", got, data)
	}

	// Every write through the map and every Reset counts; reads and
	// rejected writes do not.
	ram := m.Lookup("ram")
	steps := []func(){
		func() { m.PutU32(0x2000_0020, 7) },
		func() { m.Fill(0x2000_0030, 4, 0xAA) },
		func() { ram.Reset() },
	}
	for i, step := range steps {
		step()
		if got := ram.Writes(); got != uint64(i+2) {
			t.Fatalf("after step %d: %d writes, want %d", i, got, i+2)
		}
	}
	m.Read(0x2000_0000, 8)
	m.Write(0x2000_0FFE, data)
	m.Write(0x0800_0000, data)
	if got := ram.Writes(); got != uint64(len(steps)+1) {
		t.Fatalf("reads and rejected writes counted: %d writes", got)
	}
}

func TestPermissionFaults(t *testing.T) {
	m := testMap(t)
	if err := m.Write(0x0800_0000, []byte{1}); err == nil {
		t.Fatal("write to RX flash succeeded")
	} else if !IsBusFault(err) {
		t.Fatalf("want BusFault, got %T", err)
	}
	if _, err := m.Read(0x0800_0000, 4); err != nil {
		t.Fatalf("read from flash failed: %v", err)
	}
}

func TestUnmappedAndStraddle(t *testing.T) {
	m := testMap(t)
	if _, err := m.Read(0x1000_0000, 4); !IsBusFault(err) {
		t.Fatalf("unmapped read: %v", err)
	}
	// Straddles the end of RAM.
	if _, err := m.Read(0x2000_0FFE, 8); !IsBusFault(err) {
		t.Fatalf("straddling read: %v", err)
	}
	var bf *BusFault
	_, err := m.Read(0x2000_0FFE, 8)
	if !asBusFault(err, &bf) || bf.Why != "straddle" {
		t.Fatalf("want straddle fault, got %v", err)
	}
}

func asBusFault(err error, out **BusFault) bool {
	bf, ok := err.(*BusFault)
	if ok {
		*out = bf
	}
	return ok
}

func TestOverlapRejected(t *testing.T) {
	m := NewMap()
	m.MustAdd(NewRegion("a", 0x1000, 0x100, RW))
	if err := m.Add(NewRegion("b", 0x10FF, 0x100, RW)); err == nil {
		t.Fatal("overlapping region accepted")
	}
	if err := m.Add(NewRegion("c", 0x1100, 0x100, RW)); err != nil {
		t.Fatalf("adjacent region rejected: %v", err)
	}
}

func TestU32U64RoundTrip(t *testing.T) {
	m := testMap(t)
	if err := m.PutU32(0x2000_0000, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := m.U32(0x2000_0000)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("U32 = %#x, %v", v, err)
	}
	if err := m.PutU64(0x2000_0008, 0x0123456789ABCDEF); err != nil {
		t.Fatal(err)
	}
	w, err := m.U64(0x2000_0008)
	if err != nil || w != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %#x, %v", w, err)
	}
	// Little-endian layout check.
	b, _ := m.Read(0x2000_0000, 4)
	if !bytes.Equal(b, []byte{0xEF, 0xBE, 0xAD, 0xDE}) {
		t.Fatalf("LE bytes = %v", b)
	}
}

func TestLookupAndLocate(t *testing.T) {
	m := testMap(t)
	if r := m.Lookup("ram"); r == nil || r.Base != 0x2000_0000 {
		t.Fatalf("Lookup(ram) = %+v", r)
	}
	if r := m.Lookup("nope"); r != nil {
		t.Fatal("Lookup(nope) found a region")
	}
	if r := m.Region(0x2000_0800, 16); r == nil || r.Name != "ram" {
		t.Fatalf("Region mid-ram = %v", r)
	}
}

func TestFill(t *testing.T) {
	m := testMap(t)
	if err := m.Fill(0x2000_0000, 16, 0xAA); err != nil {
		t.Fatal(err)
	}
	b, _ := m.Read(0x2000_0000, 16)
	for _, x := range b {
		if x != 0xAA {
			t.Fatalf("fill byte %#x", x)
		}
	}
}

func TestPropertyU64RoundTrip(t *testing.T) {
	m := testMap(t)
	f := func(v uint64, off uint16) bool {
		addr := 0x2000_0000 + uint64(off%0xF00)
		if m.PutU64(addr, v) != nil {
			return false
		}
		got, err := m.U64(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermString(t *testing.T) {
	if got := (Read | Write).String(); got != "rw-" {
		t.Fatalf("perm string %q", got)
	}
	if got := RX.String(); got != "r-x" {
		t.Fatalf("perm string %q", got)
	}
}
