// Package flash implements the on-board NOR-flash device, partition tables,
// and the firmware image format. Flash semantics matter to the fuzzer: a bug
// that scribbles over the kernel partition leaves an image whose checksum no
// longer validates, so the board fails to boot until the host reflashes every
// partition over the debug link (the paper's state-restoration procedure).
package flash

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
)

// Erased is the value of an erased flash byte (NOR convention: all ones).
const Erased = 0xFF

// Device is a sectored NOR flash. Program can only clear bits; setting bits
// back requires erasing the whole covering sector, as on real parts.
type Device struct {
	sectorSize int
	data       []byte
	// eraseCount tracks per-sector erase cycles, useful for wear statistics
	// in experiments and for tests asserting that reflash actually erased.
	eraseCount []int
	// dirty marks sectors whose contents may have changed since the last
	// ClearDirty — every erase, program and corrupting write sets it. The
	// snapshot/delta restoration path diffs against this bitmap instead of
	// re-shipping whole partitions.
	dirty []bool
	// mutations counts erases, programs and corrupting writes, so a caller
	// can tell that nothing changed since it last looked.
	mutations uint64
	// Copy-before-write capture: while capturing, the first mutation of
	// sector s after the last Capture copies its bytes into saved[s] and
	// sets held[s], so Captured can return the device as of the capture.
	capturing bool
	held      []bool
	saved     [][]byte
}

// NewDevice creates an erased flash of size bytes with the given sector size.
func NewDevice(size, sectorSize int) *Device {
	if size <= 0 || sectorSize <= 0 || size%sectorSize != 0 {
		panic(fmt.Sprintf("flash: invalid geometry size=%d sector=%d", size, sectorSize))
	}
	d := &Device{
		sectorSize: sectorSize,
		data:       make([]byte, size),
		eraseCount: make([]int, size/sectorSize),
		dirty:      make([]bool, size/sectorSize),
		held:       make([]bool, size/sectorSize),
		saved:      make([][]byte, size/sectorSize),
	}
	fillErased(d.data)
	return d
}

// fillErased sets every byte of b to Erased, doubling the filled prefix with
// copy instead of storing one byte at a time.
func fillErased(b []byte) {
	if len(b) == 0 {
		return
	}
	b[0] = Erased
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int { return len(d.data) }

// SectorSize returns the erase granularity in bytes.
func (d *Device) SectorSize() int { return d.sectorSize }

// Sectors returns the number of sectors.
func (d *Device) Sectors() int { return len(d.data) / d.sectorSize }

// EraseCount returns how many times sector i has been erased.
func (d *Device) EraseCount(i int) int { return d.eraseCount[i] }

// Bytes exposes the raw array so the board can map it as a memory region.
func (d *Device) Bytes() []byte { return d.data }

// Erase resets sector i to the erased state.
func (d *Device) Erase(i int) error {
	if i < 0 || i >= d.Sectors() {
		return fmt.Errorf("flash: erase of sector %d outside device (%d sectors)", i, d.Sectors())
	}
	d.touch(i, i)
	base := i * d.sectorSize
	fillErased(d.data[base : base+d.sectorSize])
	d.eraseCount[i]++
	return nil
}

// EraseRange erases every sector overlapping [off, off+n).
func (d *Device) EraseRange(off, n int) error {
	if off < 0 || n < 0 || off > len(d.data)-n {
		return fmt.Errorf("flash: erase range [%#x,%#x) outside device", off, off+n)
	}
	if n == 0 {
		return nil
	}
	for s := off / d.sectorSize; s <= (off+n-1)/d.sectorSize; s++ {
		if err := d.Erase(s); err != nil {
			return err
		}
	}
	return nil
}

// Program writes data at off with NOR semantics: each byte is ANDed with the
// current contents, so bits can only transition from 1 to 0.
func (d *Device) Program(off int, data []byte) error {
	if off < 0 || off > len(d.data)-len(data) {
		return fmt.Errorf("flash: program [%#x,%#x) outside device", off, off+len(data))
	}
	if len(data) == 0 {
		return nil
	}
	d.touch(off/d.sectorSize, (off+len(data)-1)/d.sectorSize)
	dst := d.data[off : off+len(data)]
	i := 0
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(dst[i:]) & binary.LittleEndian.Uint64(data[i:])
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for ; i < len(data); i++ {
		dst[i] &= data[i]
	}
	return nil
}

// Read copies n bytes starting at off.
func (d *Device) Read(off, n int) ([]byte, error) {
	v, err := d.View(off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, v)
	return out, nil
}

// View returns the n bytes starting at off in place, without copying. The
// slice aliases the device: it is only valid until the next erase, program
// or corrupting write, and callers must not modify it.
func (d *Device) View(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off > len(d.data)-n {
		return nil, fmt.Errorf("flash: read [%#x,%#x) outside device", off, off+n)
	}
	return d.data[off : off+n], nil
}

// WriteImage erases the covering sectors and programs data at off; this is
// the operation the debug client's vFlash commands map to.
func (d *Device) WriteImage(off int, data []byte) error {
	if err := d.EraseRange(off, len(data)); err != nil {
		return err
	}
	return d.Program(off, data)
}

// Corrupt flips or clears bytes in [off, off+n) without erase, modelling a
// runaway kernel write into flash-mapped space. It ignores out-of-range
// spans silently truncated to the device, because buggy writes do that too.
func (d *Device) Corrupt(off, n int, pattern byte) {
	if off < 0 {
		off = 0
	}
	n = min(n, len(d.data)-off)
	if n <= 0 {
		return
	}
	d.touch(off/d.sectorSize, (off+n-1)/d.sectorSize)
	for i := off; i < off+n; i++ {
		d.data[i] &= pattern
	}
}

// touch runs before sectors first..last change: it counts the mutation,
// marks the sectors dirty and, during a capture, saves each sector's bytes
// the first time it changes after the capture.
func (d *Device) touch(first, last int) {
	d.mutations++
	for s := first; s <= last; s++ {
		d.dirty[s] = true
		if d.capturing && !d.held[s] {
			base := s * d.sectorSize
			d.saved[s] = append(d.saved[s][:0], d.data[base:base+d.sectorSize]...)
			d.held[s] = true
		}
	}
}

// Mutations returns how many erases, programs and corrupting writes the
// device has taken. Equal counts mean byte-identical contents.
func (d *Device) Mutations() uint64 { return d.mutations }

// Capture makes the current contents the point Captured returns, without
// copying them: from here on each sector is saved before its first change.
// A later Capture moves the point.
func (d *Device) Capture() {
	d.capturing = true
	clear(d.held)
}

// Captured returns sector s as it was at the last Capture: its saved copy
// if it changed since, otherwise its live bytes. The slice must not be
// modified; a live one is valid until the sector's next change.
func (d *Device) Captured(s int) []byte {
	if d.held[s] {
		return d.saved[s]
	}
	base := s * d.sectorSize
	return d.data[base : base+d.sectorSize]
}

// EndCapture stops saving sectors and releases the saved copies.
func (d *Device) EndCapture() {
	d.capturing = false
	clear(d.held)
	clear(d.saved)
}

// Dirty reports whether sector i has been touched since the last ClearDirty.
func (d *Device) Dirty(i int) bool { return d.dirty[i] }

// DirtySectors returns the indices of every sector touched since the last
// ClearDirty, in ascending order.
func (d *Device) DirtySectors() []int {
	var out []int
	for i, dt := range d.dirty {
		if dt {
			out = append(out, i)
		}
	}
	return out
}

// ClearDirty resets the dirty bitmap — the snapshot point the next
// DirtySectors call diffs against.
func (d *Device) ClearDirty() {
	for i := range d.dirty {
		d.dirty[i] = false
	}
}

// Partition is one named span of the flash device.
type Partition struct {
	Name   string
	Type   string // "app" or "data"
	Offset int
	Size   int
}

// Table is an ordered partition table as extracted from the target's build
// configuration (the paper's GetPartitionTable(KConfig)).
type Table struct {
	Parts []Partition
}

// Lookup returns the named partition, or nil.
func (t *Table) Lookup(name string) *Partition {
	for i := range t.Parts {
		if t.Parts[i].Name == name {
			return &t.Parts[i]
		}
	}
	return nil
}

// Validate checks that partitions are in-bounds and non-overlapping on dev.
func (t *Table) Validate(dev *Device) error {
	for i, p := range t.Parts {
		if p.Offset < 0 || p.Size <= 0 || p.Offset+p.Size > dev.Size() {
			return fmt.Errorf("partition %q [%#x,%#x) outside flash (%#x bytes)",
				p.Name, p.Offset, p.Offset+p.Size, dev.Size())
		}
		if p.Offset%dev.SectorSize() != 0 {
			return fmt.Errorf("partition %q offset %#x not sector-aligned", p.Name, p.Offset)
		}
		for _, q := range t.Parts[:i] {
			if p.Offset < q.Offset+q.Size && q.Offset < p.Offset+p.Size {
				return fmt.Errorf("partition %q overlaps %q", p.Name, q.Name)
			}
		}
	}
	return nil
}

// ParseTable parses the CSV-ish partition description used by embedded build
// systems (name, type, offset, size per line; '#' comments; hex or decimal).
func ParseTable(text string) (*Table, error) {
	t := &Table{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return nil, fmt.Errorf("partition table line %d: want 4 fields, got %d", ln+1, len(fields))
		}
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		off, err := parseNum(fields[2])
		if err != nil {
			return nil, fmt.Errorf("partition table line %d: bad offset %q: %v", ln+1, fields[2], err)
		}
		size, err := parseNum(fields[3])
		if err != nil {
			return nil, fmt.Errorf("partition table line %d: bad size %q: %v", ln+1, fields[3], err)
		}
		if fields[0] == "" {
			return nil, fmt.Errorf("partition table line %d: empty name", ln+1)
		}
		t.Parts = append(t.Parts, Partition{Name: fields[0], Type: fields[1], Offset: int(off), Size: int(size)})
	}
	if len(t.Parts) == 0 {
		return nil, fmt.Errorf("partition table: no partitions")
	}
	return t, nil
}

// Format renders the table back into the textual form ParseTable accepts.
func (t *Table) Format() string {
	var b strings.Builder
	b.WriteString("# name, type, offset, size\n")
	for _, p := range t.Parts {
		fmt.Fprintf(&b, "%s, %s, %#x, %#x\n", p.Name, p.Type, p.Offset, p.Size)
	}
	return b.String()
}

func parseNum(s string) (int64, error) {
	return strconv.ParseInt(s, 0, 64)
}

// CRC is the checksum used by the image format and boot validation.
func CRC(data []byte) uint32 { return crc32.ChecksumIEEE(data) }
