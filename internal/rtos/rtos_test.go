package rtos

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/flash"
	"github.com/eof-fuzz/eof/internal/mem"
	"github.com/eof-fuzz/eof/internal/sym"
	"github.com/eof-fuzz/eof/internal/uart"
	"github.com/eof-fuzz/eof/internal/vtime"
)

// newTestKernel builds a kernel with a heap on a synthetic environment.
func newTestKernel() *Kernel {
	clock := &vtime.Clock{}
	core := cpu.New(clock, cpu.Config{
		Model:          vtime.CycleModel{HZ: 100_000_000},
		CyclesPerBlock: 4,
		InstrCycles:    2,
		MaxBreakpoints: 8,
	})
	mm := mem.NewMap()
	ram := mem.NewRegion("ram", 0x2000_0000, 512*1024, mem.RW)
	mm.MustAdd(ram)
	dev := flash.NewDevice(1<<20, 4096)
	env := &board.Env{
		Spec:        &board.Spec{Name: "test", Peripherals: map[string]bool{"dma": true}},
		Clock:       clock,
		Core:        core,
		Mem:         mm,
		RAM:         ram,
		UART:        uart.New(clock),
		Flash:       dev,
		Syms:        sym.NewTable(0x0800_1000),
		FSBAddr:     0x2000_0040,
		ScratchBase: 0x2000_9000,
	}
	k := NewKernel(env, "TestOS")
	k.NewHeap(0x2001_0000, 256*1024, "t_alloc", "t_free", "t_lock", "mem.c")
	return k
}

// runKernel runs fn live on k's target goroutine and drives it to
// completion.
func runKernel(t testing.TB, k *Kernel, fn func(k *Kernel)) {
	t.Helper()
	core := k.Env.Core
	done := make(chan struct{})
	core.Start(func() {
		k.SetLive()
		defer close(done)
		defer func() {
			// Faults unwind with Unwind; swallow them so the harness exits.
			if r := recover(); r != nil {
				if _, ok := r.(Unwind); !ok {
					panic(r)
				}
			}
		}()
		fn(k)
	})
	for {
		st := core.Continue(10_000_000)
		switch st.Kind {
		case cpu.StopExit, cpu.StopKilled:
			return
		case cpu.StopFault, cpu.StopBreakpoint, cpu.StopBudget, cpu.StopCovFull:
			select {
			case <-done:
				core.Kill()
				return
			default:
			}
		}
	}
}

// testKernel builds a kernel on a synthetic environment whose target
// goroutine runs fn; the harness drives it to completion.
func testKernel(t *testing.T, fn func(k *Kernel)) {
	t.Helper()
	runKernel(t, newTestKernel(), fn)
}

func TestHeapAllocFree(t *testing.T) {
	// Below the scratch base the coverage buffer and the fault status block
	// are written past the region's write count, so no heap may start there.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewHeap accepted a heap below the scratch base")
			}
		}()
		k := newTestKernel()
		k.NewHeap(k.Env.ScratchBase-4096, 1024, "a", "f", "l", "mem.c")
	}()
	testKernel(t, func(k *Kernel) {
		a := k.Heap.Alloc(100)
		b := k.Heap.Alloc(200)
		if a == 0 || b == 0 || a == b {
			t.Errorf("allocs: %#x %#x", a, b)
		}
		// Payloads are writable RAM.
		k.WriteRAM(a, []byte("hello"))
		if string(k.ReadRAM(a, 5)) != "hello" {
			t.Error("payload readback")
		}
		if e := k.Heap.Free(a); e.Failed() {
			t.Errorf("free a: %v", e)
		}
		if e := k.Heap.Free(b); e.Failed() {
			t.Errorf("free b: %v", e)
		}
		if !k.Heap.Walk() {
			t.Error("heap corrupt after frees")
		}
		allocs, frees, free := k.Heap.Stats()
		if allocs != 2 || frees != 2 {
			t.Errorf("stats: %d/%d", allocs, frees)
		}
		if free < 250*1024 {
			t.Errorf("coalescing failed: %d free", free)
		}
	})
}

// firstFit is a read-only first-fit walk from the heap's first block: the
// payload address Alloc(n) must return (0 for none), or fault when a corrupt
// header comes before any fit.
func firstFit(h *Heap, n int) (addr uint64, fault bool) {
	if n <= 0 || n > len(h.slab) {
		return 0, false
	}
	total := uint32((n+7)&^7 + heapHeader)
	for off := 0; off < len(h.slab); {
		size, _, free, ok := h.header(off)
		if !ok {
			return 0, true
		}
		if free && size >= total {
			return h.base + uint64(off) + heapHeader, false
		}
		off += int(size)
	}
	return 0, false
}

// tryAlloc runs Alloc, reporting a kernel fault instead of unwinding.
func tryAlloc(h *Heap, n int) (addr uint64, fault bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(Unwind); !ok {
				panic(r)
			}
			fault = true
		}
	}()
	return h.Alloc(n), false
}

// TestHeapChurnProperty churns the heap with enough live allocations that
// Alloc resumes its walk past several blocks, and requires every Alloc to
// return the block, or raise the fault, of a first-fit walk from offset 0.
// Between allocations it frees blocks below the resume point, overflows a
// block into the next header through the memory map and through
// CorruptAfter, and writes earlier copies of RAM back through the map. While
// no overflow has landed since the last copy was written back, the heap must
// walk clean and Alloc must not fault. A middle phase fills the heap until
// Alloc runs out of room. The churn runs on the target goroutine, so
// failures return an error rather than stop the test there.
func TestHeapChurnProperty(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		h := k.Heap
		rng := uint64(12345)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		var live []uint64 // payload addresses of live allocations
		type ramCopy struct {
			ram  []byte
			live []uint64
		}
		// Copies are taken only while the heap is clean.
		copies := []ramCopy{{slices.Clone(k.Env.RAM.Bytes()), nil}}
		newest := 0
		// dirty is set while a corrupted header may sit in the heap, until
		// an earlier copy of RAM is written back.
		dirty := false
		writeBack := func(c ramCopy) error {
			live = slices.Clone(c.live)
			dirty = false
			return k.Env.Mem.Write(k.Env.RAM.Base, c.ram)
		}
		// hinted reports whether Alloc would resume its walk at scan.
		hinted := func() bool { return h.scanWrites == h.ram.Writes() }
		var allocs, faults, exhausted, resumed, skipped, freesBelow, maxLive int
		alloc := func(i, n int) error {
			want, wantFault := firstFit(h, n)
			if wantFault && !dirty {
				return fmt.Errorf("op %d: first fit from 0 faults on a clean heap", i)
			}
			if hinted() {
				// scan's promise: the chain from 0 reaches it through
				// allocated, valid blocks.
				blocks, off := 0, 0
				for ; off < h.scan; blocks++ {
					size, _, free, ok := h.header(off)
					if !ok || free {
						return fmt.Errorf("op %d: block %d at %d below scan %d: free %v, valid %v", i, blocks, off, h.scan, free, ok)
					}
					off += int(size)
				}
				if off != h.scan {
					return fmt.Errorf("op %d: blocks below scan end at %d, not %d", i, off, h.scan)
				}
				if blocks >= 4 {
					resumed++
				}
				skipped += blocks
			}
			got, fault := tryAlloc(h, n)
			allocs++
			if got != want || fault != wantFault {
				return fmt.Errorf("op %d: Alloc(%d) = %#x, fault %v; first fit from 0 = %#x, fault %v",
					i, n, got, fault, want, wantFault)
			}
			switch {
			case fault:
				faults++
			case got == 0:
				exhausted++
			case h.BlockPayload(got) < n:
				return fmt.Errorf("op %d: payload %d < requested %d", i, h.BlockPayload(got), n)
			default:
				live = append(live, got)
			}
			return nil
		}
		for i := 0; i < 12000; i++ {
			// Ops 4000 to 7999 fill the heap: live blocks are not capped and
			// one op in ten frees. The first half overflows no block, so the
			// copies taken on the way hold ever fuller heaps; the second
			// half overflows blocks of a full heap and cleans it by writing
			// the newest copy back.
			fill := i >= 4000 && i < 8000
			frees, limit, overflow := 6, 48, true
			if fill {
				frees, limit, overflow = 2, len(h.slab), i >= 6000
			}
			var err error
			switch op := next(20); {
			case op == 19 && !fill || dirty && op >= 12:
				c := copies[newest]
				if !fill {
					c = copies[next(len(copies))]
				}
				err = writeBack(c)
			case dirty:
				err = alloc(i, 8+next(600))
			case op < frees && len(live) > 0 || len(live) > limit:
				// Free the newest allocation, which often ends at scan, or
				// any other, mostly below it.
				j := len(live) - 1
				if op < 2 {
					j = next(len(live))
				}
				if hinted() && int(live[j]-h.base)-heapHeader < h.scan {
					freesBelow++
				}
				if e := h.Free(live[j]); e.Failed() {
					err = fmt.Errorf("op %d: free: %v", i, e)
				}
				live = slices.Delete(live, j, j+1)
			case op == 6 && overflow && len(live) > 0:
				// Overflow a block into the next header through the map.
				p := live[next(len(live))]
				junk := make([]byte, 1+next(heapHeader))
				for b := range junk {
					junk[b] = byte(next(256))
				}
				if end := p + uint64(h.BlockPayload(p)); end+uint64(len(junk)) <= h.base+uint64(len(h.slab)) {
					k.WriteRAM(end, junk)
					dirty = true
				}
			case op == 7 && overflow && len(live) > 0:
				// The same overflow through the kernel's raw primitive.
				h.CorruptAfter(live[next(len(live))], 1+next(heapHeader), byte(next(256)))
				dirty = true
			case op == 8:
				newest = len(copies)
				if newest == 4 {
					newest = next(4)
				} else {
					copies = append(copies, ramCopy{})
				}
				c := &copies[newest]
				c.ram = append(c.ram[:0], k.Env.RAM.Bytes()...)
				c.live = slices.Clone(live)
			default:
				err = alloc(i, 8+next(600))
			}
			if err == nil && !dirty && !h.Walk() {
				err = fmt.Errorf("op %d: clean heap does not walk", i)
			}
			if err != nil {
				t.Error(err)
				return
			}
			maxLive = max(maxLive, len(live))
		}
		t.Logf("%d allocs (%d faulted, %d out of room, %.1f blocks skipped each), %d frees below scan, up to %d live",
			allocs, faults, exhausted, float64(skipped)/float64(allocs), freesBelow, maxLive)
		if faults == 0 || exhausted < 100 || freesBelow < 100 || resumed < allocs/2 || maxLive < 500 {
			t.Errorf("%d allocs (%d faulted, %d out of room, %d resumed past 4 or more blocks), %d frees below scan, up to %d live",
				allocs, faults, exhausted, resumed, freesBelow, maxLive)
		}
		// Free every block in random order: the heap coalesces back into
		// one free block.
		if dirty {
			if err := writeBack(copies[newest]); err != nil {
				t.Error(err)
				return
			}
		}
		for len(live) > 0 {
			j := next(len(live))
			if e := h.Free(live[j]); e.Failed() {
				t.Errorf("final free: %v", e)
				return
			}
			live = slices.Delete(live, j, j+1)
		}
		if _, _, free := h.Stats(); !h.Walk() || free != len(h.slab)-heapHeader {
			t.Errorf("after freeing every block: walks %v, %d bytes free, want %d", h.Walk(), free, len(h.slab)-heapHeader)
		}
	})
}

func TestHeapInvalidFreePanics(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		p := k.Heap.Alloc(64)
		k.Heap.Free(p)
		defer func() {
			r := recover()
			u, ok := r.(Unwind)
			if !ok || u.Fault.Kind != cpu.FaultPanic {
				t.Errorf("double free: %v", r)
			}
			panic(r) // let the harness swallow it
		}()
		k.Heap.Free(p) // double free must panic
	})
}

func TestQueueSemantics(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		obj, e := k.NewQueue("q", 8, 2)
		if e.Failed() {
			t.Errorf("create: %v", e)
			return
		}
		q := obj.Data.(*Queue)
		if e := q.Send([]byte("a"), 0); e.Failed() {
			t.Errorf("send1: %v", e)
		}
		if e := q.Send([]byte("b"), 0); e.Failed() {
			t.Errorf("send2: %v", e)
		}
		if e := q.Send([]byte("c"), 2); e != ErrFull {
			t.Errorf("send to full queue: %v", e)
		}
		item, e := q.Recv(0)
		if e.Failed() || item[0] != 'a' {
			t.Errorf("recv: %q %v", item, e)
		}
		q.Recv(0)
		if _, e := q.Recv(1); e != ErrEmpty {
			t.Errorf("recv empty: %v", e)
		}
		if e := q.Destroy(); e.Failed() {
			t.Errorf("destroy: %v", e)
		}
		if _, e := k.Objects.GetTyped(obj.ID, ObjQueue); e != ErrState {
			t.Errorf("dead queue resolve: %v", e)
		}
	})
}

func TestQueueCreateValidation(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		for _, tc := range [][2]int{{0, 4}, {4, 0}, {QueueItemMax + 1, 4}, {4, QueueDepthMax + 1}} {
			if _, e := k.NewQueue("bad", tc[0], tc[1]); e != ErrInval {
				t.Errorf("NewQueue(%d,%d): %v", tc[0], tc[1], e)
			}
		}
	})
}

func TestSemaphore(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		obj, e := k.NewSemaphore("s", 1, 2)
		if e.Failed() {
			t.Errorf("create: %v", e)
			return
		}
		s := obj.Data.(*Semaphore)
		if e := s.Take(0); e.Failed() {
			t.Errorf("take: %v", e)
		}
		if e := s.Take(3); e != ErrTimeout {
			t.Errorf("take empty: %v", e)
		}
		s.Give()
		s.Give()
		if e := s.Give(); e != ErrFull {
			t.Errorf("give past max: %v", e)
		}
		if _, e := k.NewSemaphore("bad", 3, 2); e != ErrInval {
			t.Errorf("initial > max: %v", e)
		}
	})
}

func TestMutexAndEvents(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		mo, _ := k.NewMutex("m", false)
		m := mo.Data.(*Mutex)
		if e := m.Unlock(); e != ErrPerm {
			t.Errorf("unlock unheld: %v", e)
		}
		if e := m.Lock(0); e.Failed() {
			t.Errorf("lock: %v", e)
		}
		if e := m.Lock(2); e != ErrTimeout {
			t.Errorf("relock non-recursive: %v", e)
		}
		m.Unlock()

		eo, _ := k.NewEvent("e")
		ev := eo.Data.(*Event)
		if e := ev.Send(0); e != ErrInval {
			t.Errorf("send zero bits: %v", e)
		}
		ev.Send(0b101)
		got, e := ev.Recv(0b100, EvtClear, 0)
		if e.Failed() || got != 0b100 {
			t.Errorf("recv: %b %v", got, e)
		}
		if ev.Bits != 0b001 {
			t.Errorf("clear failed: %b", ev.Bits)
		}
		if _, e := ev.Recv(0b110, EvtAll, 2); e != ErrTimeout {
			t.Errorf("wait all: %v", e)
		}
	})
}

func TestSchedulerTasks(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		k.InitSched("tick", "pick", "switch", "sched.c")
		if _, e := k.Sched.Create("t", -1, 256, 0); e != ErrInval {
			t.Errorf("bad prio: %v", e)
		}
		if _, e := k.Sched.Create("t", 5, 1, 0); e != ErrInval {
			t.Errorf("bad stack: %v", e)
		}
		o1, _ := k.Sched.Create("hi", 1, 512, 0)
		k.Sched.Create("lo", 20, 512, 1)
		k.TickN(20)
		hi := o1.Data.(*Task)
		if hi.RunCount == 0 {
			t.Error("high-priority task never ran")
		}
		if k.Sched.Current() == nil || k.Sched.Current().Prio() != 1 {
			t.Errorf("current: %+v", k.Sched.Current())
		}
		k.Sched.SetState(hi, TaskSuspended)
		k.TickN(5)
		if k.Sched.Current().Prio() != 20 {
			t.Error("scheduler did not fall back to low-priority task")
		}
		if k.Sched.TaskCount() != 2 {
			t.Errorf("task count: %d", k.Sched.TaskCount())
		}
	})
}

func TestTimers(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		obj, e := k.NewTimer("t", 5, false, 0)
		if e.Failed() {
			t.Errorf("create: %v", e)
			return
		}
		tm := obj.Data.(*Timer)
		if e := tm.Stop(); e != ErrState {
			t.Errorf("stop disarmed: %v", e)
		}
		tm.Start()
		if e := tm.Start(); e != ErrBusy {
			t.Errorf("double start: %v", e)
		}
		k.TickN(12)
		if tm.Fires != 2 {
			t.Errorf("periodic fires: %d", tm.Fires)
		}
		tm.Stop()
		k.TickN(10)
		if tm.Fires != 2 {
			t.Error("fired while stopped")
		}
		if _, e := k.NewTimer("bad", 0, false, 0); e != ErrInval {
			t.Errorf("zero period: %v", e)
		}
	})
}

func TestPools(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		obj, e := k.NewPool("p", 32, 4, "p_alloc", "p_free", "pool.c")
		if e.Failed() {
			t.Errorf("create: %v", e)
			return
		}
		p := obj.Data.(*Pool)
		var blocks []uint64
		for i := 0; i < 4; i++ {
			b, e := p.Alloc(0)
			if e.Failed() {
				t.Errorf("alloc %d: %v", i, e)
				return
			}
			blocks = append(blocks, b)
		}
		if _, e := p.Alloc(2); e != ErrNoMem {
			t.Errorf("alloc from empty pool: %v", e)
		}
		if e := p.Free(blocks[0] + 1); e != ErrInval {
			t.Errorf("misaligned free: %v", e)
		}
		if e := p.Free(blocks[0]); e.Failed() {
			t.Errorf("free: %v", e)
		}
		if e := p.Free(blocks[0]); e != ErrState {
			t.Errorf("double free: %v", e)
		}
		if p.Available() != 1 {
			t.Errorf("available: %d", p.Available())
		}
	})
}

func TestDriverStateMachine(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		d := k.NewDriver("dma", "d_open", "d_ctl", "d_close", "drv.c")
		h, e := d.Open()
		if e.Failed() {
			t.Errorf("open: %v", e)
			return
		}
		// Order is enforced.
		if _, e := d.Ctl(h, DrvCmdArm, 0); e != ErrState {
			t.Errorf("arm before init: %v", e)
		}
		if _, e := d.Ctl(h, DrvCmdInit, 0); e.Failed() {
			t.Errorf("init: %v", e)
		}
		if _, e := d.Ctl(h, DrvCmdArm, 0); e != ErrInval {
			t.Errorf("arm without channels: %v", e)
		}
		d.Ctl(h, DrvCmdChannel, 0)
		d.Ctl(h, DrvCmdChannel, 1)
		if _, e := d.Ctl(h, DrvCmdArm, 0); e.Failed() {
			t.Errorf("arm: %v", e)
		}
		if _, e := d.Ctl(h, DrvCmdTrigger, 0); e.Failed() {
			t.Errorf("trigger: %v", e)
		}
		if _, e := d.Ctl(h, DrvCmdRun, 0); e != ErrState {
			t.Errorf("run before calibrate: %v", e)
		}
		d.Ctl(h, DrvCmdCalibrate, 3)
		v, e := d.Ctl(h, DrvCmdRun, 0)
		if e.Failed() || v != 3 {
			t.Errorf("run: %d %v", v, e)
		}
		// Reset rewinds the machine.
		d.Ctl(h, DrvCmdReset, 0)
		if _, e := d.Ctl(h, DrvCmdRun, 0); e != ErrState {
			t.Errorf("run after reset: %v", e)
		}
		if e := d.Close(h); e.Failed() {
			t.Errorf("close: %v", e)
		}
		if _, e := d.Ctl(h, DrvCmdInit, 42); e != ErrState {
			t.Errorf("ctl on closed session: %v", e)
		}
	})
}

func TestDriverNeedsPeripheral(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		k.Env.Spec.Peripherals = map[string]bool{}
		d := k.NewDriver("dma", "x_open", "x_ctl", "x_close", "drv.c")
		if _, e := d.Open(); e != ErrNoDev {
			t.Errorf("open without peripheral: %v", e)
		}
	})
}

func TestObjectsTable(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		o := k.Objects.New(ObjSem, "s", 42)
		if got := k.Objects.Get(o.ID); got != o {
			t.Error("Get")
		}
		if _, e := k.Objects.GetTyped(o.ID, ObjQueue); e != ErrType {
			t.Errorf("type confusion: %v", e)
		}
		if _, e := k.Objects.GetTyped(999999, ObjSem); e != ErrNotFound {
			t.Errorf("missing: %v", e)
		}
		if e := k.Objects.Delete(o.ID); e.Failed() {
			t.Errorf("delete: %v", e)
		}
		if e := k.Objects.Delete(o.ID); e != ErrState {
			t.Errorf("double delete: %v", e)
		}
		if _, e := k.Objects.GetTyped(o.ID, ObjSem); e != ErrState {
			t.Errorf("dead resolve: %v", e)
		}

		// The live counts against a count over the map, while objects of
		// several types, untyped ones included, come and go; some deletes
		// hit dead handles.
		rng := uint64(99)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		types := []ObjType{ObjNone, ObjTask, ObjQueue, ObjSem, ObjTimer, ObjHeapRef}
		ids := []uint32{o.ID}
		for i := 0; i < 600; i++ {
			if next(3) == 0 {
				k.Objects.Delete(ids[next(len(ids))])
			} else {
				ids = append(ids, k.Objects.New(types[next(len(types))], "o", nil).ID)
			}
			for typ := ObjNone; typ <= ObjHeapRef; typ++ {
				want := 0
				for _, o := range k.Objects.objs {
					if o.Alive() && (typ == ObjNone || o.Type == typ) {
						want++
					}
				}
				if got := k.Objects.Count(typ); got != want {
					t.Errorf("op %d: Count(%v) = %d, %d live in the table", i, typ, got, want)
					return
				}
			}
		}
		if k.Objects.Count(ObjNone) < 100 {
			t.Errorf("only %d live objects", k.Objects.Count(ObjNone))
		}
	})
}

func TestKprintfReachesUART(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		k.Kprintf("boot value %d\n", 7)
		lines := k.Env.UART.Drain()
		if len(lines) != 1 || lines[0].Text != "boot value 7" {
			t.Errorf("uart: %+v", lines)
		}
	})
}

func TestPanicFaultWritesFSBAndBanner(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		f := k.Fn("victim_fn", "src/victim.c", 10, 3)
		defer func() {
			r := recover()
			u, ok := r.(Unwind)
			if !ok {
				t.Errorf("unwind: %v", r)
				panic(r)
			}
			if u.Fault.Kind != cpu.FaultUsage || len(u.Fault.Frames) == 0 ||
				u.Fault.Frames[0].Func != "victim_fn" {
				t.Errorf("fault: %+v", u.Fault)
			}
			found := false
			for _, l := range k.Env.UART.Drain() {
				if l.Text == "*** UsageFault: boom" {
					found = true
				}
			}
			if !found {
				t.Error("banner missing")
			}
			panic(r)
		}()
		f.Enter()
		k.PanicFault(cpu.FaultUsage, "boom")
	})
}

func TestBacktraceFrames(t *testing.T) {
	testKernel(t, func(k *Kernel) {
		frames := func(want ...cpu.Frame) {
			t.Helper()
			if got := k.Frames(); !slices.Equal(got, want) {
				t.Errorf("frames = %v, want %v", got, want)
			}
		}
		outer := k.Fn("outer_fn", "src/outer.c", 100, 4)
		mid := k.Fn("mid_fn", "src/mid.c", 200, 4)
		inner := k.Fn("inner_fn", "src/inner.c", 300, 4)
		outerAt := func(line int) cpu.Frame { return cpu.Frame{File: "src/outer.c", Func: "outer_fn", Line: line} }
		midAt := func(line int) cpu.Frame { return cpu.Frame{File: "src/mid.c", Func: "mid_fn", Line: line} }

		outer.Enter()
		frames(outerAt(100))
		outer.B(2)
		mid.Enter()
		mid.B(3)
		inner.Enter()
		inner.B(1)
		frames(cpu.Frame{File: "src/inner.c", Func: "inner_fn", Line: 301}, midAt(203), outerAt(102))
		inner.Exit()
		frames(midAt(203), outerAt(102))
		// A block or an exit of a function that is not on top leaves the
		// stack alone.
		inner.B(2)
		inner.Exit()
		frames(midAt(203), outerAt(102))
		mid.B(1)
		frames(midAt(201), outerAt(102))
		mid.Exit()
		outer.B(3)
		frames(outerAt(103))

		// The assertion line names the top frame. Leave AssertFail's hang
		// by panicking out of the console sink.
		type escaped struct{}
		var line string
		k.ConsoleWrite = func(s string) { line = s; panic(escaped{}) }
		func() {
			defer func() {
				if r := recover(); r != (escaped{}) {
					panic(r)
				}
			}()
			k.AssertFail("x > 0")
		}()
		k.ConsoleWrite = nil
		if want := "ASSERT failed: (x > 0) at src/outer.c:103 (outer_fn)\n"; line != want {
			t.Errorf("assert line = %q, want %q", line, want)
		}

		// A second pool's Fns share the first pool's symbols: each updates
		// and pops the frame the other pushed.
		o1, _ := k.NewPool("p1", 32, 2, "p_alloc", "p_free", "pool.c")
		o2, _ := k.NewPool("p2", 32, 2, "p_alloc", "p_free", "pool.c")
		a1, a2 := o1.Data.(*Pool).fnAlloc, o2.Data.(*Pool).fnAlloc
		if a1 == a2 || a1.SF != a2.SF {
			t.Errorf("pools: same Fn %v, same symbol %v", a1 == a2, a1.SF == a2.SF)
			return
		}
		a1.Enter()
		a2.B(4)
		frames(cpu.Frame{File: "pool.c", Func: "p_alloc", Line: 94}, outerAt(103))
		a2.Exit()
		frames(outerAt(103))
		outer.Exit()
		frames()
	})
}

func TestErrnoStrings(t *testing.T) {
	f := func(v int16) bool {
		return Errno(v).String() != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
	if OK.Failed() || !ErrInval.Failed() {
		t.Fatal("Failed() wrong")
	}
}
