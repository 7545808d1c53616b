// Package cov implements the coverage pipeline: a SanCov-style runtime
// compiled into the target that records edge hits into a bounded buffer in
// target RAM, and the host-side collector that reads, decodes and clears the
// buffer over the debug link.
//
// The target half mirrors the paper's mechanism: instrumentation callbacks
// (__sanitizer_cov_trace_* analogues) call write_comp_data to append edge
// records; when the buffer fills, execution traps at _kcmp_buf_full so the
// host can drain it mid-run. Edges are recorded at most once per guard epoch
// (the agent resets guards at the start of each test case), matching
// guard-based SanCov.
package cov

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Buffer layout in target RAM (little-endian):
//
//	+0  u32 magic
//	+4  u32 count     — valid entries
//	+8  u32 capacity  — total entry slots
//	+12 u32 lost      — edges dropped while the buffer was full
//	+16 u32 entries[capacity]
const (
	Magic      = 0xEDFEC07E // arbitrary stable constant
	headerSize = 16
	entrySize  = 4
)

// BufferBytes returns the RAM footprint of a buffer with n entry slots.
func BufferBytes(n int) int { return headerSize + n*entrySize }

// Edge folds a (prev, cur) block pair into the 32-bit edge identifier, the
// same prev^(cur>>1) shape AFL-family tools use.
func Edge(prev, cur uint64) uint32 {
	return uint32(prev) ^ uint32(cur>>1) ^ uint32(cur<<17) ^ uint32(prev>>31)
}

// Runtime is the target-side coverage collector. It writes directly into the
// RAM slab that the board maps, so host debug-link reads observe it with no
// extra copying — exactly like reading a device's SRAM.
type Runtime struct {
	buf  []byte
	cap  int
	prev uint64
	// Edge guards: an epoch-tagged slot array instead of a map —
	// constant-time and allocation-free, like real SanCov guard arrays.
	// Distinct edges sharing a slot collapse for the epoch (first-wins),
	// the same undercounting real AFL-style bitmaps exhibit.
	guardEpoch []uint32
	epoch      uint32
	// filter, when set, confines instrumentation to the PCs it accepts —
	// the build-time "instrument only these modules" configuration of the
	// paper's application-level evaluation.
	filter func(pc uint64) bool
	// full latches once the buffer filled; cleared when the host resets the
	// count word via ClearedByHost.
	full bool
}

// guardSlots sizes the guard table (64Ki entries).
const guardSlots = 1 << 16

// SetFilter confines recording to PCs the predicate accepts (nil = all).
func (r *Runtime) SetFilter(f func(pc uint64) bool) { r.filter = f }

// NewRuntime initialises a coverage buffer inside ram (which must be at least
// BufferBytes(capacity) long) and returns the runtime managing it.
func NewRuntime(ram []byte, capacity int) *Runtime {
	if len(ram) < BufferBytes(capacity) {
		panic(fmt.Sprintf("cov: ram slab %d too small for %d entries", len(ram), capacity))
	}
	r := &Runtime{buf: ram, cap: capacity, guardEpoch: make([]uint32, guardSlots)}
	r.Reset()
	return r
}

// Reset returns the runtime to the state NewRuntime leaves it in, over the
// same slab and guard table: an empty buffer header, no filter, prev and
// full cleared, and a fresh guard epoch, so no edge counts as seen.
func (r *Runtime) Reset() {
	r.filter = nil
	r.full = false
	r.ResetEpoch()
	binary.LittleEndian.PutUint32(r.buf[0:], Magic)
	binary.LittleEndian.PutUint32(r.buf[4:], 0)
	binary.LittleEndian.PutUint32(r.buf[8:], uint32(r.cap))
	binary.LittleEndian.PutUint32(r.buf[12:], 0)
}

// Seen is the common case of TracePC, small enough to inline into the
// core's per-block step: on an unfiltered runtime whose guard already holds
// the edge into pc this epoch, it moves prev to pc, which is all TracePC
// would do, and reports true. Otherwise it changes nothing, and the caller
// must call TracePC.
func (r *Runtime) Seen(pc uint64) bool {
	return r.filter == nil && r.held(pc)
}

// held moves prev to pc and reports true when the guard slot of the edge
// into pc is taken this epoch: either by this edge (seen) or by a colliding
// one. Colliding edges are dropped for the epoch — first-wins, like AFL map
// collisions — because re-recording on every alternation floods the buffer
// from hot loops.
func (r *Runtime) held(pc uint64) bool {
	if r.guardEpoch[Edge(r.prev, pc)&(guardSlots-1)] != r.epoch {
		return false
	}
	r.prev = pc
	return true
}

// TracePC is the per-block instrumentation callback. It returns true when
// the buffer just became full and the caller should trap to the host.
func (r *Runtime) TracePC(pc uint64) (trap bool) {
	if r.filter != nil && !r.filter(pc) {
		r.prev = 0 // a gap in instrumented code breaks the edge chain
		return false
	}
	if r.held(pc) {
		return false
	}
	e := Edge(r.prev, pc)
	r.prev = pc
	r.guardEpoch[e&(guardSlots-1)] = r.epoch
	count := binary.LittleEndian.Uint32(r.buf[4:])
	if r.full && int(count) < r.cap {
		// The host cleared the buffer (wrote count=0) after the full trap.
		r.full = false
	}
	if int(count) >= r.cap {
		lost := binary.LittleEndian.Uint32(r.buf[12:])
		binary.LittleEndian.PutUint32(r.buf[12:], lost+1)
		if !r.full {
			r.full = true
			return true
		}
		return false
	}
	binary.LittleEndian.PutUint32(r.buf[headerSize+int(count)*entrySize:], e)
	binary.LittleEndian.PutUint32(r.buf[4:], count+1)
	if int(count)+1 >= r.cap && !r.full {
		r.full = true
		return true
	}
	return false
}

// ResetEpoch clears the guard set and the prev-PC state; the agent calls it
// as each test case begins so per-case edge sets are comparable.
func (r *Runtime) ResetEpoch() {
	r.epoch++
	if r.epoch == 0 { // wrapped: stale tags could alias, so clear
		for i := range r.guardEpoch {
			r.guardEpoch[i] = 0
		}
		r.epoch = 1
	}
	r.prev = 0
}

// SyncFromRAM refreshes target-side state after the host cleared the buffer
// by writing count=0 through the debug link.
func (r *Runtime) SyncFromRAM() {
	if binary.LittleEndian.Uint32(r.buf[4:]) == 0 {
		r.full = false
	}
}

// Count returns the number of valid entries (target-side view).
func (r *Runtime) Count() int {
	return int(binary.LittleEndian.Uint32(r.buf[4:]))
}

// Decode parses a raw buffer snapshot read over the debug link.
func Decode(raw []byte) (entries []uint32, lost uint32, err error) {
	if len(raw) < headerSize {
		return nil, 0, fmt.Errorf("cov: snapshot too short (%d bytes)", len(raw))
	}
	if m := binary.LittleEndian.Uint32(raw[0:]); m != Magic {
		return nil, 0, fmt.Errorf("cov: bad magic %#x", m)
	}
	count := int(binary.LittleEndian.Uint32(raw[4:]))
	capacity := int(binary.LittleEndian.Uint32(raw[8:]))
	lost = binary.LittleEndian.Uint32(raw[12:])
	if count > capacity || len(raw) < BufferBytes(count) {
		return nil, 0, fmt.Errorf("cov: corrupt header count=%d cap=%d len=%d", count, capacity, len(raw))
	}
	entries = make([]uint32, count)
	for i := 0; i < count; i++ {
		entries[i] = binary.LittleEndian.Uint32(raw[headerSize+i*entrySize:])
	}
	return entries, lost, nil
}

// Collector is the host-side accumulator of global edge coverage. It is safe
// for concurrent use: fleet campaigns share one collector across shard
// engines, each draining its own board from its own goroutine.
type Collector struct {
	mu   sync.Mutex
	seen map[uint32]struct{}
	// Lost accumulates dropped-edge counts reported by the target.
	Lost uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{seen: make(map[uint32]struct{})}
}

// Ingest merges a batch of edges, returning how many were globally new and
// the list of new edges (for corpus attribution).
func (c *Collector) Ingest(entries []uint32) (fresh []uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if _, ok := c.seen[e]; !ok {
			c.seen[e] = struct{}{}
			fresh = append(fresh, e)
		}
	}
	return fresh
}

// AddLost accumulates a dropped-edge count reported by the target.
func (c *Collector) AddLost(n uint32) {
	c.mu.Lock()
	c.Lost += uint64(n)
	c.mu.Unlock()
}

// Total returns the number of distinct edges observed — the "branches found"
// metric of the paper's Tables 3 and 4.
func (c *Collector) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seen)
}

// Has reports whether edge e has been observed.
func (c *Collector) Has(e uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.seen[e]
	return ok
}

// Edges returns the observed edge set in ascending order, so merged fleet
// reports and cross-shard imports stay deterministic.
func (c *Collector) Edges() []uint32 {
	c.mu.Lock()
	out := make([]uint32, 0, len(c.seen))
	for e := range c.seen {
		out = append(out, e)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
