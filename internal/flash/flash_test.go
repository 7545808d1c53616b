package flash

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEraseProgramSemantics(t *testing.T) {
	d := NewDevice(4096, 1024)
	if got, _ := d.Read(0, 2); got[0] != Erased || got[1] != Erased {
		t.Fatal("new device not erased")
	}
	if err := d.Program(0, []byte{0xF0}); err != nil {
		t.Fatal(err)
	}
	// NOR: programming can only clear bits.
	if err := d.Program(0, []byte{0x0F}); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(0, 1)
	if got[0] != 0x00 {
		t.Fatalf("AND semantics broken: %#x", got[0])
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Read(0, 1)
	if got[0] != Erased {
		t.Fatalf("erase failed: %#x", got[0])
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("erase count %d", d.EraseCount(0))
	}
}

func TestEraseRangeCoversSectors(t *testing.T) {
	d := NewDevice(4096, 1024)
	d.Program(1000, []byte{0})
	d.Program(1100, []byte{0})
	if err := d.EraseRange(1000, 200); err != nil {
		t.Fatal(err)
	}
	// Spans sectors 0 and 1.
	if d.EraseCount(0) != 1 || d.EraseCount(1) != 1 {
		t.Fatalf("erase counts %d,%d", d.EraseCount(0), d.EraseCount(1))
	}
	if err := d.EraseRange(0, 0); err != nil {
		t.Fatal("zero-length erase should be a no-op")
	}
}

func TestWriteImageRoundTrip(t *testing.T) {
	d := NewDevice(8192, 1024)
	data := []byte("hello firmware")
	// Pre-dirty the area so WriteImage must erase.
	d.Program(100, []byte{0, 0, 0})
	if err := d.WriteImage(0, data); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(0, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestBoundsErrors(t *testing.T) {
	d := NewDevice(1024, 1024)
	if err := d.Program(1020, []byte{1, 2, 3, 4, 5}); err == nil {
		t.Fatal("overflow program accepted")
	}
	if _, err := d.Read(-1, 4); err == nil {
		t.Fatal("negative read accepted")
	}
	if err := d.Erase(1); err == nil {
		t.Fatal("bad sector erase accepted")
	}
}

func TestPartitionTableParse(t *testing.T) {
	text := `# name, type, offset, size
bootloader, app, 0x0, 0x8000
kernel, app, 0x8000, 0x40000
nvs, data, 0x48000, 0x4000
`
	tab, err := ParseTable(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Parts) != 3 {
		t.Fatalf("%d parts", len(tab.Parts))
	}
	k := tab.Lookup("kernel")
	if k == nil || k.Offset != 0x8000 || k.Size != 0x40000 {
		t.Fatalf("kernel = %+v", k)
	}
	if tab.Lookup("missing") != nil {
		t.Fatal("found missing partition")
	}
	// Round-trip through Format.
	tab2, err := ParseTable(tab.Format())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab2.Parts) != 3 || *tab2.Lookup("nvs") != *tab.Lookup("nvs") {
		t.Fatal("format round-trip mismatch")
	}
}

func TestPartitionTableErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"a, b, c\n",
		"x, app, zz, 0x100\n",
		"x, app, 0x0, zz\n",
		", app, 0x0, 0x100\n",
	} {
		if _, err := ParseTable(bad); err == nil {
			t.Errorf("ParseTable(%q) accepted", bad)
		}
	}
}

func TestPartitionValidate(t *testing.T) {
	d := NewDevice(64*1024, 4096)
	tab := &Table{Parts: []Partition{
		{Name: "a", Type: "app", Offset: 0, Size: 0x4000},
		{Name: "b", Type: "app", Offset: 0x4000, Size: 0x4000},
	}}
	if err := tab.Validate(d); err != nil {
		t.Fatal(err)
	}
	bad := &Table{Parts: []Partition{
		{Name: "a", Type: "app", Offset: 0, Size: 0x5000},
		{Name: "b", Type: "app", Offset: 0x4000, Size: 0x4000},
	}}
	if err := bad.Validate(d); err == nil || !strings.Contains(err.Error(), "overlaps") {
		t.Fatalf("overlap not caught: %v", err)
	}
	unaligned := &Table{Parts: []Partition{{Name: "a", Type: "app", Offset: 100, Size: 0x1000}}}
	if err := unaligned.Validate(d); err == nil {
		t.Fatal("unaligned offset accepted")
	}
	outside := &Table{Parts: []Partition{{Name: "a", Type: "app", Offset: 0, Size: 0x8000000}}}
	if err := outside.Validate(d); err == nil {
		t.Fatal("oversized partition accepted")
	}
}

func TestImageSerializeParse(t *testing.T) {
	im := &Image{Magic: MagicKernel, OS: "freertos", BuildID: 0xABCD, Instrumented: true, CodeSize: 2048, Entry: 0x08001000}
	raw := im.Serialize()
	if len(raw) != im.TotalSize() {
		t.Fatalf("serialized %d, TotalSize %d", len(raw), im.TotalSize())
	}
	// Parse from a larger partition buffer.
	part := make([]byte, len(raw)+512)
	for i := range part {
		part[i] = Erased
	}
	copy(part, raw)
	got, err := ParseImage(part)
	if err != nil {
		t.Fatal(err)
	}
	if got.OS != "freertos" || got.BuildID != 0xABCD || !got.Instrumented || got.CodeSize != 2048 || got.Entry != 0x08001000 {
		t.Fatalf("parsed %+v", got)
	}
}

// bytewisePseudoCode is the byte-at-a-time code-section generator the
// word-wide one replaced, kept as its reference.
func bytewisePseudoCode(seed uint64, n int) []byte {
	out := make([]byte, n)
	x := seed | 1
	for i := 0; i < n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		for j := 0; j < 8 && i+j < n; j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out
}

// TestImageCodeMatchesBytewise checks that Serialize writes the same code
// section as the byte-at-a-time generator, for whole and partial last words.
func TestImageCodeMatchesBytewise(t *testing.T) {
	sizes := []int{4093}
	for n := 0; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	for _, seed := range []uint64{0, 1, 2, 0xB007, 0xDEADBEEFCAFEF00D, ^uint64(0)} {
		for _, n := range sizes {
			im := &Image{Magic: MagicKernel, OS: "os", BuildID: seed, CodeSize: uint32(n)}
			raw := im.Serialize()
			code := raw[imageHeaderFixed+len(im.OS) : len(raw)-4]
			if want := bytewisePseudoCode(seed, n); !bytes.Equal(code, want) {
				t.Fatalf("seed %#x size %d: code section differs from the byte-wise generator", seed, n)
			}
			if _, err := ParseImage(raw); err != nil {
				t.Fatalf("seed %#x size %d: %v", seed, n, err)
			}
		}
	}
}

func TestImageCorruptionDetected(t *testing.T) {
	im := &Image{Magic: MagicKernel, OS: "zephyr", BuildID: 7, CodeSize: 1024}
	raw := im.Serialize()
	raw[40] ^= 0xFF
	if _, err := ParseImage(raw); err == nil {
		t.Fatal("corrupt image accepted")
	}
	// Bad magic.
	raw2 := im.Serialize()
	raw2[0] = 0
	if _, err := ParseImage(raw2); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated.
	if _, err := ParseImage(im.Serialize()[:10]); err == nil {
		t.Fatal("truncated image accepted")
	}
}

func TestImageDeterministic(t *testing.T) {
	a := (&Image{Magic: MagicKernel, OS: "nuttx", BuildID: 42, CodeSize: 4096}).Serialize()
	b := (&Image{Magic: MagicKernel, OS: "nuttx", BuildID: 42, CodeSize: 4096}).Serialize()
	if !bytes.Equal(a, b) {
		t.Fatal("image serialization not deterministic")
	}
	c := (&Image{Magic: MagicKernel, OS: "nuttx", BuildID: 43, CodeSize: 4096}).Serialize()
	if bytes.Equal(a, c) {
		t.Fatal("different build IDs produced identical images")
	}
}

func TestImagePropertyRoundTrip(t *testing.T) {
	f := func(build uint64, size uint16, instr bool) bool {
		im := &Image{Magic: MagicBoot, OS: "os", BuildID: build, Instrumented: instr, CodeSize: uint32(size)}
		got, err := ParseImage(im.Serialize())
		return err == nil && got.BuildID == build && got.Instrumented == instr && got.CodeSize == uint32(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrupt(t *testing.T) {
	d := NewDevice(2048, 1024)
	img := (&Image{Magic: MagicKernel, OS: "x", BuildID: 1, CodeSize: 256}).Serialize()
	if err := d.WriteImage(0, img); err != nil {
		t.Fatal(err)
	}
	d.Corrupt(20, 8, 0x00)
	raw, _ := d.Read(0, len(img))
	if _, err := ParseImage(raw); err == nil {
		t.Fatal("CRC did not catch corruption")
	}
}

// refDevice is a byte-at-a-time model of Device: the reference the word-wide
// Program, the copy-doubling Erase and the copy-before-write capture are
// checked against.
type refDevice struct {
	sector int
	data   []byte
	erases []int
	dirty  []bool
	// golden is a full copy taken at the last capture, nil outside one;
	// writes counts each sector's mutations since that capture.
	golden []byte
	writes []int
}

func newRefDevice(size, sector int) *refDevice {
	r := &refDevice{sector: sector, data: make([]byte, size),
		erases: make([]int, size/sector), dirty: make([]bool, size/sector), writes: make([]int, size/sector)}
	for i := range r.data {
		r.data[i] = Erased
	}
	return r
}

func (r *refDevice) mark(s int) {
	r.dirty[s] = true
	r.writes[s]++
}

func (r *refDevice) erase(s int) {
	for j := s * r.sector; j < (s+1)*r.sector; j++ {
		r.data[j] = Erased
	}
	r.erases[s]++
	r.mark(s)
}

func (r *refDevice) eraseRange(off, n int) {
	for j := off; j < off+n; j++ {
		if j == off || j%r.sector == 0 {
			r.erase(j / r.sector)
		}
	}
}

func (r *refDevice) program(off int, data []byte) {
	for i, b := range data {
		r.data[off+i] &= b
		if i == 0 || (off+i)%r.sector == 0 {
			r.mark((off + i) / r.sector)
		}
	}
}

func (r *refDevice) corrupt(off, n int, pattern byte) {
	off = max(off, 0)
	for i := off; i < off+n && i < len(r.data); i++ {
		r.data[i] &= pattern
		if i == off || i%r.sector == 0 {
			r.mark(i / r.sector)
		}
	}
}

func (r *refDevice) capture() {
	r.golden = bytes.Clone(r.data)
	clear(r.writes)
}

// TestWordOpsMatchByteReference drives Program, Erase, EraseRange, Corrupt,
// WriteImage, Capture and EndCapture with random offsets and lengths
// (unaligned heads and tails, unaligned sources, multi-sector spans, corrupt
// spans past the device end) and checks bytes, erase counts, dirty sectors
// and every sector's Captured copy against the byte-at-a-time reference
// after every operation, and that any operation changing a byte moves the
// mutation count.
func TestWordOpsMatchByteReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, geo := range []struct{ size, sector int }{{1024, 64}, {210, 30}, {4096, 4096}} {
		d, ref := NewDevice(geo.size, geo.sector), newRefDevice(geo.size, geo.sector)
		src := make([]byte, geo.size+8)
		var spanned, pastEnd, rewritten bool
		for op := 0; op < 3000; op++ {
			off := rnd.Intn(geo.size)
			n := rnd.Intn(geo.size - off + 1)
			if rnd.Intn(2) == 0 {
				n = min(n, rnd.Intn(3*geo.sector+1))
			}
			rnd.Read(src)
			data := src[rnd.Intn(8):][:n]
			before, mutations := bytes.Clone(d.Bytes()), d.Mutations()
			var err error
			switch rnd.Intn(7) {
			case 0, 1:
				err = d.Program(off, data)
				ref.program(off, data)
			case 2:
				s := rnd.Intn(d.Sectors())
				err = d.Erase(s)
				ref.erase(s)
			case 3:
				err = d.EraseRange(off, n)
				ref.eraseRange(off, n)
			case 4:
				n += rnd.Intn(geo.sector) // may run past the device end
				pattern := byte(rnd.Intn(256))
				d.Corrupt(off, n, pattern)
				ref.corrupt(off, n, pattern)
				spanned = spanned || (n > 0 && off/geo.sector != (min(off+n, geo.size)-1)/geo.sector)
				pastEnd = pastEnd || off+n > geo.size
			case 5:
				err = d.WriteImage(off, data)
				ref.eraseRange(off, n)
				ref.program(off, data)
			case 6:
				if rnd.Intn(4) == 0 {
					d.EndCapture()
					ref.golden = nil
				} else {
					d.Capture()
					ref.capture()
				}
			}
			if err != nil {
				t.Fatalf("geometry %v op %d: %v", geo, op, err)
			}
			if !bytes.Equal(d.Bytes(), ref.data) {
				t.Fatalf("geometry %v op %d (off %d, n %d): bytes diverge from the reference", geo, op, off, n)
			}
			if !bytes.Equal(d.Bytes(), before) && d.Mutations() == mutations {
				t.Fatalf("geometry %v op %d: bytes changed but the mutation count stayed %d", geo, op, mutations)
			}
			for s := 0; s < d.Sectors(); s++ {
				if d.EraseCount(s) != ref.erases[s] || d.Dirty(s) != ref.dirty[s] {
					t.Fatalf("geometry %v op %d: sector %d erases %d dirty %v, reference %d %v",
						geo, op, s, d.EraseCount(s), d.Dirty(s), ref.erases[s], ref.dirty[s])
				}
				if ref.golden == nil {
					continue
				}
				if want := ref.golden[s*geo.sector : (s+1)*geo.sector]; !bytes.Equal(d.Captured(s), want) {
					t.Fatalf("geometry %v op %d: sector %d's captured copy differs from the capture", geo, op, s)
				}
				rewritten = rewritten || ref.writes[s] > 1
			}
			if rnd.Intn(50) == 0 {
				d.ClearDirty()
				clear(ref.dirty)
			}
		}
		if (!spanned && d.Sectors() > 1) || !pastEnd || !rewritten {
			t.Fatalf("geometry %v: corrupt across sectors %v, past the end %v, sector written twice in a capture %v",
				geo, spanned, pastEnd, rewritten)
		}
	}
}
