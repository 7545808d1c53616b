package rtos

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/cpu"
)

// pcRecorder is a coverage hook that records every block the core steps.
type pcRecorder struct{ pcs []uint64 }

func (r *pcRecorder) TracePC(pc uint64) bool {
	r.pcs = append(r.pcs, pc)
	return false
}

// nopHook is a coverage hook that records nothing.
type nopHook struct{}

func (nopHook) TracePC(uint64) bool { return false }

// tickState is what one tick may change, as the scan bounds must keep it.
type tickState struct {
	Now    time.Duration
	Blocks uint64
	PCs    int
	Tasks  []taskState
	Timers []timerState
}

type taskState struct {
	State              TaskState
	Prio               int
	WakeTick, RunCount uint64
}

type timerState struct {
	Fires, NextFire uint64
	Armed           bool
}

// boundsRun drives a seeded random script of task and timer operations
// between ticks and records the state after every tick. With fullScans it
// resets both scan bounds and the heap's resume point before each tick, and
// sets every timer's started bit, which reproduces the kernel that scans
// every timer and sleeper and walks the heap from its first block on every
// tick.
type boundsRun struct {
	k         *Kernel
	rec       *pcRecorder
	fullScans bool
	rng       uint64
	states    []tickState
	faults    int
	cbFaults  int    // faults raised inside a timer callback
	restarts  int    // Starts of a stopped timer created before an armed one
	disarms   int    // Stops right before a delete
	indexErr  string // the first stale pick key, ready bit or started bit, if any
	// The keys and ready bits of the last rotation check.
	rotKeys  []uint8
	rotReady []uint64
}

func (r *boundsRun) next(n int) int {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return int(r.rng % uint64(n))
}

// prio returns a task priority, the lowest one a third of the time.
func (r *boundsRun) prio() int {
	if r.next(3) == 0 {
		return PrioMin
	}
	return r.next(PrioCount)
}

// tick runs one kernel tick and records the state after it, also when the
// tick unwinds on a fault.
func (r *boundsRun) tick() {
	k := r.k
	defer func() {
		st := tickState{Now: k.Env.Clock.Now(), Blocks: k.Env.Core.TotalBlocks(), PCs: len(r.rec.pcs)}
		for _, t := range k.Sched.tasks {
			st.Tasks = append(st.Tasks, taskState{t.state, t.prio, t.WakeTick, t.RunCount})
		}
		for _, t := range k.Timers.timers {
			st.Timers = append(st.Timers, timerState{t.Fires, t.NextFire, t.armed})
		}
		r.states = append(r.states, st)
		r.checkIndexes(fmt.Sprintf("tick %d", len(r.states)))
	}()
	if r.fullScans {
		w := k.Timers
		w.minNext, k.Sched.minWake = 0, 0
		k.Heap.scan, k.Heap.last = 0, -1
		for i := range w.timers {
			w.started[i/64] |= 1 << (i % 64)
		}
	}
	k.Tick()
}

// checkIndexes records the first pick key that differs from the key of its
// task's state and priority, ready bit that differs from its key, rotation
// whose records the keys count differently from a scan of the tasks, or
// armed live timer whose started bit is clear.
func (r *boundsRun) checkIndexes(when string) {
	if r.indexErr != "" {
		return
	}
	if err := r.startedErr(); err != "" {
		r.indexErr = when + ": " + err
		return
	}
	s := r.k.Sched
	if len(s.keys) != len(s.tasks) || len(s.ready) != (len(s.tasks)+63)/64 {
		r.indexErr = fmt.Sprintf("%s: %d keys and %d ready words for %d tasks", when, len(s.keys), len(s.ready), len(s.tasks))
		return
	}
	for i, t := range s.tasks {
		want := uint8(0xFF)
		if t.state == TaskReady || t.state == TaskRunning {
			want = uint8(t.prio)
		}
		if s.keys[i] != want {
			r.indexErr = fmt.Sprintf("%s: task %d (%v, priority %d) has key %#x, want %#x",
				when, i, t.state, t.prio, s.keys[i], want)
			return
		}
		if bit := s.ready[i/64]>>(i%64)&1 == 1; bit != (s.keys[i] != keyIdle) {
			r.indexErr = fmt.Sprintf("%s: task %d has key %#x and ready bit %v", when, i, s.keys[i], bit)
			return
		}
	}
	// rotation reads only the keys and ready bits, checked against the
	// tasks above, so while both equal those of the last rotation check
	// every start counts as it did then.
	if slices.Equal(s.keys, r.rotKeys) && slices.Equal(s.ready, r.rotReady) {
		return
	}
	r.rotKeys = append(r.rotKeys[:0], s.keys...)
	r.rotReady = append(r.rotReady[:0], s.ready...)
	for start := range s.tasks {
		records, best := 0, -1
		for j := range s.tasks {
			i := (start + j) % len(s.tasks)
			t := s.tasks[i]
			if t.state != TaskReady && t.state != TaskRunning {
				continue
			}
			if best < 0 || t.prio < s.tasks[best].prio {
				records, best = records+1, i
			}
		}
		if n, got := s.rotation(start); n != records || got != best {
			r.indexErr = fmt.Sprintf("%s: rotation from %d: %d records ending at %d, tasks give %d ending at %d",
				when, start, n, got, records, best)
			return
		}
	}
}

// startedErr describes how the started bits fail to cover every armed live
// timer with one bit per timer.
func (r *boundsRun) startedErr() string {
	w := r.k.Timers
	if len(w.started) != (len(w.timers)+63)/64 {
		return fmt.Sprintf("%d started words for %d timers", len(w.started), len(w.timers))
	}
	if n := len(w.timers); n%64 != 0 && w.started[n/64]>>(n%64) != 0 {
		return fmt.Sprintf("started bit set past timer %d", n-1)
	}
	for i, t := range w.timers {
		if t.armed && t.Obj.Alive() && w.started[i/64]>>(i%64)&1 == 0 {
			return fmt.Sprintf("armed live timer %d has no started bit", i)
		}
	}
	return ""
}

// script creates, deletes, suspends, resumes and re-prioritises tasks of
// every behaviour through the scheduler's setters, locks a mutex (which
// restores a raised task's base priority), holds and frees heap blocks, and
// creates, starts, stops and deletes one-shot and periodic timers of every
// callback behaviour, re-starting the oldest stopped one now and then,
// ticking in between, then ticks n more times.
func (r *boundsRun) script(steps, n int) {
	k := r.k
	k.InitSched("tick", "pick", "switch", "sched.c")
	mo, _ := k.NewMutex("m", false)
	var tasks []*Task
	var timers []*Timer
	var held []uint64
	for step := 0; step < steps; step++ {
		switch op := r.next(15); {
		case op == 0 || len(tasks) == 0:
			o, _ := k.Sched.Create("t", r.prio(), 256, r.next(NumBehaviors))
			tasks = append(tasks, o.Data.(*Task))
		case op == 1 && len(tasks) > 8:
			if t := tasks[r.next(len(tasks))]; t.State() != TaskDead {
				k.Sched.SetState(t, TaskDead)
				k.Objects.Delete(t.Obj.ID)
			}
		case op == 2:
			if t := tasks[r.next(len(tasks))]; t.State() != TaskDead {
				k.Sched.SetState(t, TaskSuspended)
			}
		case op == 3:
			if t := tasks[r.next(len(tasks))]; t.State() == TaskSuspended {
				k.Sched.SetState(t, TaskReady)
			}
		case op == 4:
			k.Sched.SetPrio(tasks[r.next(len(tasks))], r.prio())
		case op == 10:
			if m := mo.Data.(*Mutex); m.Lock(0) == OK {
				m.Unlock()
			}
		case op == 11 && len(held) > 12:
			j := r.next(len(held))
			k.Heap.Free(held[j])
			held = append(held[:j], held[j+1:]...)
		case op == 11 || op == 12:
			if p := k.Heap.Alloc(8 + r.next(200)); p != 0 {
				held = append(held, p)
			}
		case op == 5 || len(timers) == 0:
			o, _ := k.NewTimer("tm", uint64(1+r.next(12)), r.next(3) == 0, r.next(3))
			timers = append(timers, o.Data.(*Timer))
		case op == 6 || op == 7:
			r.start(timers[r.next(len(timers))])
		case op == 13:
			if i := slices.IndexFunc(timers, func(t *Timer) bool { return !t.armed && t.Obj.Alive() }); i >= 0 {
				r.start(timers[i])
			}
		case op == 8:
			timers[r.next(len(timers))].Stop()
		case op == 9 && len(timers) > 8:
			t := timers[r.next(len(timers))]
			if r.next(2) == 0 && t.Stop() == OK {
				r.disarms++ // disarm before deleting, as nuttx's timer_delete does
			}
			k.Objects.Delete(t.Obj.ID)
		default:
			for i := 1 + r.next(8); i > 0; i-- {
				r.tick()
			}
		}
		r.checkIndexes(fmt.Sprintf("step %d", step))
	}
	for i := 0; i < n; i++ {
		r.tick()
	}
}

// start starts t, counting the Starts of a stopped timer that the scan must
// visit before an armed one created after it.
func (r *boundsRun) start(t *Timer) {
	if !t.armed && slices.ContainsFunc(r.k.Timers.timers[t.idx+1:], (*Timer).Armed) {
		r.restarts++
	}
	t.Start()
}

// faultingTicks corrupts the heap's first block header with a write through
// the memory map, so heap-churning timer callbacks and tasks fault and
// unwind their tick part-way through, then ticks n times.
func (r *boundsRun) faultingTicks(n int) {
	r.k.WriteRAM(r.k.Heap.base, make([]byte, heapHeader))
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					u, ok := p.(Unwind)
					if !ok {
						panic(p)
					}
					r.faults++
					if slices.ContainsFunc(u.Fault.Frames, func(f cpu.Frame) bool { return f.Func == "__timer_callback" }) {
						r.cbFaults++
					}
				}
			}()
			r.tick()
		}()
	}
}

// TestScanBoundsExact runs one script on twin kernels, one skipping timer
// and sleeper scans below their bounds, scanning only started timers and
// resuming heap walks at the resume point, and one scanning every timer and
// walking from the first block on every tick. It requires the same blocks,
// clock and task and timer state tick for tick, and pick keys, ready bits,
// rotations and started bits that match their tasks and timers after every
// step and tick, faulting ticks included.
func TestScanBoundsExact(t *testing.T) {
	type result struct {
		run    *boundsRun
		allocs float64
	}
	twin := func(fullScans bool) result {
		k := newTestKernel()
		res := result{run: &boundsRun{k: k, rec: &pcRecorder{}, fullScans: fullScans, rng: 0x5eed}}
		k.Env.Core.SetInstrumented(true)
		k.Env.Core.SetCovHook(res.run.rec, 0)
		runKernel(t, k, func(k *Kernel) {
			res.run.script(2400, 3000)
			k.Env.Core.SetCovHook(nopHook{}, 0)
			res.allocs = testing.AllocsPerRun(500, k.Tick)
			k.Env.Core.SetCovHook(res.run.rec, 0)
			res.run.faultingTicks(300)
		})
		return res
	}
	full, bounded := twin(true), twin(false)

	fs, bs := full.run.states, bounded.run.states
	if len(fs) < 3300 || len(bs) != len(fs) {
		t.Fatalf("ticks: bounded %d, full %d", len(bs), len(fs))
	}
	for i := range fs {
		if !reflect.DeepEqual(bs[i], fs[i]) {
			t.Fatalf("tick %d differs:\nbounded %+v\nfull    %+v", i, bs[i], fs[i])
		}
	}
	if !reflect.DeepEqual(bounded.run.rec.pcs, full.run.rec.pcs) {
		t.Fatal("PC streams differ")
	}
	if bounded.run.faults == 0 || bounded.run.faults != full.run.faults {
		t.Fatalf("faulting ticks: bounded %d, full %d", bounded.run.faults, full.run.faults)
	}
	for _, run := range []*boundsRun{bounded.run, full.run} {
		if run.indexErr != "" {
			t.Fatalf("stale index after %s", run.indexErr)
		}
	}
	if b := bounded.run; b.cbFaults == 0 || b.restarts == 0 || b.disarms == 0 || len(b.k.Sched.tasks) <= 128 || len(b.k.Timers.timers) <= 128 {
		t.Fatalf("script exercised %d timer callback faults, %d restarts of older timers, %d stops before a delete, %d tasks and %d timers (want over two ready and started words)",
			b.cbFaults, b.restarts, b.disarms, len(b.k.Sched.tasks), len(b.k.Timers.timers))
	}
	var woken, fired, expired int
	last := fs[len(fs)-1]
	for _, ts := range last.Tasks {
		if ts.WakeTick > 0 {
			woken++
		}
	}
	for i, ts := range last.Timers {
		if ts.Fires > 0 {
			fired++
			if bounded.run.k.Timers.timers[i].OneShot {
				expired++
			}
		}
	}
	if woken == 0 || fired == 0 || expired == 0 {
		t.Fatalf("script exercised %d sleepers, %d firing timers and %d one-shot expiries", woken, fired, expired)
	}
	if bounded.allocs != 0 {
		t.Errorf("warm Tick allocates %.1f times", bounded.allocs)
	}
}
