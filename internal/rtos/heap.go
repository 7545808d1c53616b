package rtos

import (
	"encoding/binary"

	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/mem"
)

// Heap is a first-fit free-list allocator whose metadata lives inside the
// target RAM slab, boundary-tag style. Because headers are real bytes in the
// mapped region, a buggy kernel write can corrupt them and the corruption is
// then *discovered* later by magic validation — the classic embedded heap
// failure mode several Table-2 bugs exercise.
//
// Block layout (16-byte header, 8-byte aligned sizes):
//
//	+0  u32 size      — total block size including header
//	+4  u32 prevSize  — size of the physically previous block (0 for first)
//	+8  u16 magic     — 0x6EAB allocated / 0xFEEB free
//	+10 u16 flags     — bit0 free
//	+12 u32 nameTag   — short owner tag (rt_smem_setname writes here)
type Heap struct {
	k    *Kernel
	slab []byte
	base uint64 // target address of slab[0]
	ram  *mem.Region

	// scan is where Alloc's first-fit walk resumes. While ram.Writes()
	// equals scanWrites, the blocks from offset 0 up to scan are allocated
	// and valid, as a walk read them or Alloc wrote them: no write through
	// the map has landed since, and every heap write below scan lowered it.
	// last is the offset of the block that ends at scan, or -1 if unknown.
	scan, last int
	scanWrites uint64

	// Instrumented functions, named by the personality (pvPortMalloc,
	// rt_smem_alloc, k_heap_alloc, ...).
	fnAlloc *Fn
	fnFree  *Fn
	fnLock  *Fn // heap lock; one personality's bug lives here

	// lockDepth models a non-recursive heap lock; re-entry hangs.
	lockDepth int
	// lockBroken is set by the _heap_lock bug so the *next* operation
	// deadlocks, mirroring a lock left held on an error path.
	lockBroken bool

	allocs int
	frees  int
}

const (
	heapHeader   = 16
	heapMinBlock = heapHeader + 8
	magicAlloc   = 0x6EAB
	magicFree    = 0xFEEB
)

// NewHeap carves a heap out of target RAM at [addr, addr+size) and registers
// the personality's allocator symbols. The heap must start at or above
// Env.ScratchBase: below it live the coverage buffer and the fault status
// block, which their owners write without the region's write count.
func (k *Kernel) NewHeap(addr uint64, size int, allocName, freeName, lockName, file string) *Heap {
	if addr < k.Env.RAM.Base || addr+uint64(size) > k.Env.RAM.End() {
		panic("rtos: heap outside RAM")
	}
	if addr < k.Env.ScratchBase {
		panic("rtos: heap below the scratch base")
	}
	off := addr - k.Env.RAM.Base
	// The allocator mutates the slab directly, bypassing the memory map's
	// dirty tracking: pin its pages so delta restores always re-ship it.
	k.Env.RAM.PinDirty(off, size)
	h := &Heap{
		k:       k,
		slab:    k.Env.RAM.Bytes()[off : off+uint64(size)],
		base:    addr,
		ram:     k.Env.RAM,
		last:    -1,
		fnAlloc: k.Fn(allocName, file, 120, 20),
		fnFree:  k.Fn(freeName, file, 260, 10),
		fnLock:  k.Fn(lockName, file, 48, 4),
	}
	// One initial free block spanning the slab.
	h.writeHeader(0, uint32(len(h.slab)), 0, true)
	k.Heap = h
	return h
}

func (h *Heap) writeHeader(off int, size, prevSize uint32, free bool) {
	binary.LittleEndian.PutUint32(h.slab[off:], size)
	binary.LittleEndian.PutUint32(h.slab[off+4:], prevSize)
	m := uint16(magicAlloc)
	var fl uint16
	if free {
		m = magicFree
		fl = 1
	}
	binary.LittleEndian.PutUint16(h.slab[off+8:], m)
	binary.LittleEndian.PutUint16(h.slab[off+10:], fl)
}

func (h *Heap) header(off int) (size, prevSize uint32, free bool, ok bool) {
	if off < 0 || off+heapHeader > len(h.slab) {
		return 0, 0, false, false
	}
	b := (*[heapHeader]byte)(h.slab[off:])
	size = binary.LittleEndian.Uint32(b[0:])
	prevSize = binary.LittleEndian.Uint32(b[4:])
	m := binary.LittleEndian.Uint16(b[8:])
	fl := binary.LittleEndian.Uint16(b[10:])
	free = fl&1 != 0
	ok = (free && m == magicFree) || (!free && m == magicAlloc)
	if size < heapHeader || off+int(size) > len(h.slab) {
		ok = false
	}
	return size, prevSize, free, ok
}

// lock acquires the (non-recursive) heap lock, hanging on re-entry or when a
// prior bug left it held.
func (h *Heap) lock() {
	h.fnLock.Enter()
	defer h.fnLock.Exit()
	if h.lockBroken || h.lockDepth > 0 {
		h.fnLock.B(2)
		h.k.HangForever("heap lock deadlock")
	}
	h.fnLock.B(1)
	h.lockDepth++
}

func (h *Heap) unlock() {
	if h.lockDepth > 0 {
		h.lockDepth--
	}
}

// BreakLock leaves the heap lock held (used by the personality bug that
// models a lock leak on an error path); every subsequent heap op deadlocks.
func (h *Heap) BreakLock() { h.lockBroken = true }

// PanicInLock raises a fault attributed to the heap-lock function —
// personalities use it for lock-balance bugs whose crash site is the lock
// primitive itself.
func (h *Heap) PanicInLock(kind cpu.FaultKind, msg string) {
	h.fnLock.Enter()
	h.fnLock.B(3)
	h.k.PanicFault(kind, msg)
}

// Alloc carves n payload bytes from the heap, returning the target address
// or 0 when exhausted. Heap-metadata corruption is detected here and raises
// a kernel panic, attributing the crash to the allocator as real RTOSes do.
func (h *Heap) Alloc(n int) uint64 {
	f := h.fnAlloc
	f.Enter()
	defer f.Exit()
	h.lock()
	defer h.unlock()

	if n <= 0 || n > len(h.slab) {
		f.B(1)
		return 0
	}
	need := (n + 7) &^ 7
	total := uint32(need + heapHeader)
	f.B(2)

	// Resume at scan: the blocks below it are allocated and valid, so a walk
	// from 0 would pass them without a fit or a fault.
	if w := h.ram.Writes(); w != h.scanWrites {
		h.scan, h.last, h.scanWrites = 0, -1, w
	}
	off := h.scan
	for off < len(h.slab) {
		size, prev, free, ok := h.header(off)
		if !ok {
			f.B(3)
			h.k.PanicFault(cpu.FaultPanic, "heap: corrupted block header")
		}
		if free && size >= total {
			f.B(4)
			// Split when the remainder can hold a block.
			if size-total >= heapMinBlock {
				f.B(5)
				h.writeHeader(off, total, prev, false)
				h.writeHeader(off+int(total), size-total, total, true)
				if next := off + int(size); next+heapHeader <= len(h.slab) {
					binary.LittleEndian.PutUint32(h.slab[next+4:], size-total)
				}
				size = total
			} else {
				f.B(6)
				h.writeHeader(off, size, prev, false)
			}
			if off == h.scan {
				h.scan, h.last = off+int(size), off
			}
			h.allocs++
			// Size-class paths: small/medium/large allocations take distinct
			// branches in real allocators (bins, alignment, large-block path).
			f.B(9 + sizeClass(n))
			f.B(7)
			return h.base + uint64(off) + heapHeader
		}
		if !free && off == h.scan {
			h.scan, h.last = off+int(size), off
		}
		off += int(size)
	}
	f.B(8)
	return 0
}

// wrote keeps scan's promise after a heap write whose lowest byte is at off.
// A write at or above scan touches no block below it. One inside the block
// that ends at scan leaves the blocks before it alone, so the walk resumes
// at that block; any other write below scan restarts the walk at 0.
func (h *Heap) wrote(off int) {
	switch {
	case off >= h.scan:
		return
	case h.last >= 0 && off >= h.last:
		h.scan = h.last
	default:
		h.scan = 0
	}
	h.last = -1
}

// sizeClass buckets an allocation size (0..5).
func sizeClass(n int) int {
	switch {
	case n <= 16:
		return 0
	case n <= 64:
		return 1
	case n <= 256:
		return 2
	case n <= 1024:
		return 3
	case n <= 8192:
		return 4
	default:
		return 5
	}
}

// Free releases an allocation by target address. Freeing garbage addresses
// or double-freeing is detected by magic validation and panics.
func (h *Heap) Free(addr uint64) Errno {
	f := h.fnFree
	f.Enter()
	defer f.Exit()
	h.lock()
	defer h.unlock()

	if addr < h.base+heapHeader || addr >= h.base+uint64(len(h.slab)) {
		f.B(1)
		return ErrInval
	}
	off := int(addr-h.base) - heapHeader
	size, prev, free, ok := h.header(off)
	if !ok || free {
		f.B(2)
		h.k.PanicFault(cpu.FaultPanic, "heap: invalid free")
	}
	f.B(3)
	h.writeHeader(off, size, prev, true)
	h.frees++

	// Coalesce with the next block.
	if next := off + int(size); next+heapHeader <= len(h.slab) {
		nsize, _, nfree, nok := h.header(next)
		if nok && nfree {
			f.B(4)
			size += nsize
			h.writeHeader(off, size, prev, true)
		}
	}
	// Coalesce with the previous block.
	if prev != 0 {
		pOff := off - int(prev)
		psize, pprev, pfree, pok := h.header(pOff)
		if pok && pfree && int(psize) == int(prev) {
			f.B(5)
			h.writeHeader(pOff, psize+size, pprev, true)
			off = pOff
			size += psize
		}
	}
	// Fix the following block's prevSize.
	if next := off + int(size); next+heapHeader <= len(h.slab) {
		binary.LittleEndian.PutUint32(h.slab[next+4:], size)
	}
	h.wrote(off)
	f.B(6)
	return OK
}

// BlockPayload returns the payload capacity of the allocation at addr, or -1
// if addr is not a live allocation.
func (h *Heap) BlockPayload(addr uint64) int {
	off := int(addr-h.base) - heapHeader
	size, _, free, ok := h.header(off)
	if !ok || free {
		return -1
	}
	return int(size) - heapHeader
}

// SetNameTag writes a 4-byte owner tag into the block header at addr.
func (h *Heap) SetNameTag(addr uint64, tag uint32) bool {
	off := int(addr-h.base) - heapHeader
	if _, _, free, ok := h.header(off); !ok || free {
		return false
	}
	binary.LittleEndian.PutUint32(h.slab[off+12:], tag)
	h.wrote(off + 12)
	return true
}

// CorruptAfter overwrites len bytes beyond the payload end of the block at
// addr — the raw overflow primitive personality bugs use.
func (h *Heap) CorruptAfter(addr uint64, n int, pattern byte) {
	off := int(addr-h.base) - heapHeader
	size, _, _, ok := h.header(off)
	if !ok {
		return
	}
	end := off + int(size)
	for i := 0; i < n && end+i < len(h.slab); i++ {
		h.slab[end+i] = pattern
	}
	if n > 0 {
		h.wrote(end)
	}
}

// Stats returns allocation counters and free-space accounting.
func (h *Heap) Stats() (allocs, frees, freeBytes int) {
	off := 0
	for off < len(h.slab) {
		size, _, free, ok := h.header(off)
		if !ok {
			break
		}
		if free {
			freeBytes += int(size) - heapHeader
		}
		off += int(size)
	}
	return h.allocs, h.frees, freeBytes
}

// Walk validates the whole heap, returning false at the first corrupt
// header (sys_heap_stress-style validation passes use it).
func (h *Heap) Walk() bool {
	off := 0
	for off < len(h.slab) {
		size, _, _, ok := h.header(off)
		if !ok {
			return false
		}
		off += int(size)
	}
	return true
}
