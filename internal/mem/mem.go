// Package mem implements the target memory map: named regions with base
// addresses, sizes and permissions, backed by byte slabs. The debug link and
// the on-target runtime both go through this map, so out-of-range or
// permission-violating accesses surface as bus faults exactly where a real
// MCU would raise them.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Perm is a region permission bitmask.
type Perm uint8

// Permission bits.
const (
	Read Perm = 1 << iota
	Write
	Exec
)

// RW is the usual RAM permission set.
const RW = Read | Write

// RX is the usual flash/code permission set.
const RX = Read | Exec

func (p Perm) String() string {
	b := []byte("---")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// BusFault describes an invalid memory access. It satisfies error and carries
// enough detail for crash reports.
type BusFault struct {
	Addr uint64
	Size int
	Op   string // "read", "write", "exec"
	Why  string // "unmapped", "perm", "straddle"
}

func (f *BusFault) Error() string {
	return fmt.Sprintf("bus fault: %s of %d bytes at %#x (%s)", f.Op, f.Size, f.Addr, f.Why)
}

// IsBusFault reports whether err is (or wraps) a *BusFault.
func IsBusFault(err error) bool {
	var bf *BusFault
	return errors.As(err, &bf)
}

// PageSize is the dirty-tracking granularity of a region: writes mark the
// covering pages dirty, and the snapshot/delta restoration path re-ships only
// dirty pages.
const PageSize = 1024

// Region is a contiguous address range backed by a byte slab.
type Region struct {
	Name string
	Base uint64
	Perm Perm
	data []byte
	// dirty marks pages written through the map since the last ClearDirty.
	// pinned marks pages that devices mutate directly through Bytes()
	// (coverage buffer, mailbox, FSB): those bypass the map's write path, so
	// they are treated as always dirty.
	dirty  []bool
	pinned []bool
	// writes counts the writes through the map and the Resets. Code that
	// caches what it read from the region (the kernel heap's first-fit walk)
	// trusts the cache only while this count is unchanged.
	writes uint64
}

// NewRegion allocates a region of the given size filled with zeros.
func NewRegion(name string, base uint64, size int, perm Perm) *Region {
	return &Region{Name: name, Base: base, Perm: perm, data: make([]byte, size),
		dirty: make([]bool, pages(size)), pinned: make([]bool, pages(size))}
}

// BackedRegion wraps an existing slab (e.g. a flash device's array) so writes
// through the map and through the device stay coherent.
func BackedRegion(name string, base uint64, data []byte, perm Perm) *Region {
	return &Region{Name: name, Base: base, Perm: perm, data: data,
		dirty: make([]bool, pages(len(data))), pinned: make([]bool, pages(len(data)))}
}

func pages(size int) int { return (size + PageSize - 1) / PageSize }

// Size returns the region length in bytes.
func (r *Region) Size() int { return len(r.data) }

// End returns the first address past the region.
func (r *Region) End() uint64 { return r.Base + uint64(len(r.data)) }

// Contains reports whether [addr, addr+size) lies entirely inside the region.
func (r *Region) Contains(addr uint64, size int) bool {
	return addr >= r.Base && addr+uint64(size) <= r.End() && addr+uint64(size) >= addr
}

// Bytes exposes the raw slab. Intended for devices that own the region.
func (r *Region) Bytes() []byte { return r.data }

// markDirty flags every page overlapping [off, off+size).
func (r *Region) markDirty(off uint64, size int) {
	if size <= 0 {
		return
	}
	last := (off + uint64(size) - 1) / PageSize
	for p := off / PageSize; p <= last && p < uint64(len(r.dirty)); p++ {
		r.dirty[p] = true
	}
}

// PinDirty marks the pages covering [off, off+size) as permanently dirty:
// device writes through Bytes() bypass the map's write path, so regions a
// device mutates in place (coverage buffer, mailbox) stay conservatively
// dirty across ClearDirty.
func (r *Region) PinDirty(off uint64, size int) {
	if size <= 0 {
		return
	}
	last := (off + uint64(size) - 1) / PageSize
	for p := off / PageSize; p <= last && p < uint64(len(r.pinned)); p++ {
		r.pinned[p] = true
	}
}

// DirtyPages returns the indices of every dirty or pinned page, ascending.
func (r *Region) DirtyPages() []int {
	var out []int
	for p := range r.dirty {
		if r.dirty[p] || r.pinned[p] {
			out = append(out, p)
		}
	}
	return out
}

// ClearDirty resets the written-page bitmap; pinned pages stay dirty.
func (r *Region) ClearDirty() {
	for p := range r.dirty {
		r.dirty[p] = false
	}
}

// Reset zeroes the region and clears its dirty and pinned bitmaps in place,
// leaving it as NewRegion returns it without allocating.
func (r *Region) Reset() {
	clear(r.data)
	clear(r.dirty)
	clear(r.pinned)
	r.writes++
}

// Writes returns how many writes through the map and Resets the region has
// seen. Device writes through Bytes() are not counted.
func (r *Region) Writes() uint64 { return r.writes }

// Map is an ordered set of non-overlapping regions.
type Map struct {
	regions []*Region
}

// NewMap returns an empty memory map.
func NewMap() *Map { return &Map{} }

// Add inserts a region, keeping the map sorted by base address. It returns an
// error if the region overlaps an existing one.
func (m *Map) Add(r *Region) error {
	for _, q := range m.regions {
		if r.Base < q.End() && q.Base < r.End() {
			return fmt.Errorf("region %s [%#x,%#x) overlaps %s [%#x,%#x)",
				r.Name, r.Base, r.End(), q.Name, q.Base, q.End())
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
	return nil
}

// MustAdd is Add for static board layouts, panicking on overlap.
func (m *Map) MustAdd(r *Region) {
	if err := m.Add(r); err != nil {
		panic(err)
	}
}

// Region returns the region containing [addr, addr+size), or nil.
func (m *Map) Region(addr uint64, size int) *Region {
	i := sort.Search(len(m.regions), func(i int) bool { return m.regions[i].End() > addr })
	if i < len(m.regions) && m.regions[i].Contains(addr, size) {
		return m.regions[i]
	}
	return nil
}

// Lookup returns a region by name, or nil.
func (m *Map) Lookup(name string) *Region {
	for _, r := range m.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns the regions in address order. The slice is shared; callers
// must not mutate it.
func (m *Map) Regions() []*Region { return m.regions }

func (m *Map) slice(addr uint64, size int, op string, need Perm) ([]byte, error) {
	if size < 0 || addr+uint64(size) < addr {
		return nil, &BusFault{Addr: addr, Size: size, Op: op, Why: "straddle"}
	}
	r := m.Region(addr, size)
	if r == nil {
		// Distinguish straddling a boundary from fully unmapped for reports.
		if m.Region(addr, 1) != nil {
			return nil, &BusFault{Addr: addr, Size: size, Op: op, Why: "straddle"}
		}
		return nil, &BusFault{Addr: addr, Size: size, Op: op, Why: "unmapped"}
	}
	if r.Perm&need == 0 {
		return nil, &BusFault{Addr: addr, Size: size, Op: op, Why: "perm"}
	}
	off := addr - r.Base
	if need&Write != 0 {
		r.markDirty(off, size)
		r.writes++
	}
	return r.data[off : off+uint64(size)], nil
}

// Read copies size bytes starting at addr.
func (m *Map) Read(addr uint64, size int) ([]byte, error) {
	src, err := m.slice(addr, size, "read", Read)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	copy(out, src)
	return out, nil
}

// Write stores data at addr.
func (m *Map) Write(addr uint64, data []byte) error {
	dst, err := m.slice(addr, len(data), "write", Write)
	if err != nil {
		return err
	}
	copy(dst, data)
	return nil
}

// ReadAt implements partial reads into buf, mirroring io semantics for the
// debug server's memory commands.
func (m *Map) ReadAt(buf []byte, addr uint64) error {
	src, err := m.slice(addr, len(buf), "read", Read)
	if err != nil {
		return err
	}
	copy(buf, src)
	return nil
}

// U32 reads a little-endian uint32.
func (m *Map) U32(addr uint64) (uint32, error) {
	b, err := m.slice(addr, 4, "read", Read)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// PutU32 writes a little-endian uint32.
func (m *Map) PutU32(addr uint64, v uint32) error {
	b, err := m.slice(addr, 4, "write", Write)
	if err != nil {
		return err
	}
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// U64 reads a little-endian uint64.
func (m *Map) U64(addr uint64) (uint64, error) {
	b, err := m.slice(addr, 8, "read", Read)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v, nil
}

// PutU64 writes a little-endian uint64.
func (m *Map) PutU64(addr uint64, v uint64) error {
	b, err := m.slice(addr, 8, "write", Write)
	if err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return nil
}

// Fill sets size bytes at addr to b (used by erase and test scaffolding).
func (m *Map) Fill(addr uint64, size int, val byte) error {
	dst, err := m.slice(addr, size, "write", Write)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = val
	}
	return nil
}
