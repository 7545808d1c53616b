package rtos

import (
	"reflect"
	"testing"
	"time"
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
	WakeTick, RunCount uint64
}

type timerState struct {
	Fires, NextFire uint64
	Armed           bool
}

// boundsRun drives a seeded random script of task and timer operations
// between ticks and records the state after every tick. With fullScans it
// resets both scan bounds before each tick, which reproduces the kernel
// that scans every timer and sleeper on every tick.
type boundsRun struct {
	k         *Kernel
	rec       *pcRecorder
	fullScans bool
	rng       uint64
	states    []tickState
	faults    int
}

func (r *boundsRun) next(n int) int {
	r.rng ^= r.rng << 13
	r.rng ^= r.rng >> 7
	r.rng ^= r.rng << 17
	return int(r.rng % uint64(n))
}

// tick runs one kernel tick and records the state after it, also when the
// tick unwinds on a fault.
func (r *boundsRun) tick() {
	k := r.k
	defer func() {
		st := tickState{Now: k.Env.Clock.Now(), Blocks: k.Env.Core.TotalBlocks(), PCs: len(r.rec.pcs)}
		for _, t := range k.Sched.tasks {
			st.Tasks = append(st.Tasks, taskState{t.State, t.WakeTick, t.RunCount})
		}
		for _, t := range k.Timers.timers {
			st.Timers = append(st.Timers, timerState{t.Fires, t.NextFire, t.Armed})
		}
		r.states = append(r.states, st)
	}()
	if r.fullScans {
		k.Timers.minNext, k.Sched.minWake = 0, 0
	}
	k.Tick()
}

// script creates, deletes, suspends, resumes and re-prioritises tasks of
// every behaviour and creates, starts, stops and deletes one-shot and
// periodic timers of every callback behaviour, ticking in between, then
// ticks n more times.
func (r *boundsRun) script(steps, n int) {
	k := r.k
	k.InitSched("tick", "pick", "switch", "sched.c")
	var tasks []*Task
	var timers []*Timer
	for step := 0; step < steps; step++ {
		switch op := r.next(12); {
		case op == 0 || len(tasks) == 0:
			o, _ := k.Sched.Create("t", r.next(PrioCount), 256, r.next(NumBehaviors))
			tasks = append(tasks, o.Data.(*Task))
		case op == 1 && len(tasks) > 8:
			if t := tasks[r.next(len(tasks))]; t.State != TaskDead {
				t.State = TaskDead
				k.Objects.Delete(t.Obj.ID)
			}
		case op == 2:
			if t := tasks[r.next(len(tasks))]; t.State != TaskDead {
				t.State = TaskSuspended
			}
		case op == 3:
			if t := tasks[r.next(len(tasks))]; t.State == TaskSuspended {
				t.State = TaskReady
			}
		case op == 4:
			tasks[r.next(len(tasks))].Prio = r.next(PrioCount)
		case op == 5 || len(timers) == 0:
			o, _ := k.NewTimer("tm", uint64(1+r.next(12)), r.next(3) == 0, r.next(3))
			timers = append(timers, o.Data.(*Timer))
		case op == 6 || op == 7:
			timers[r.next(len(timers))].Start()
		case op == 8:
			timers[r.next(len(timers))].Stop()
		case op == 9 && len(timers) > 8:
			t := timers[r.next(len(timers))]
			if r.next(2) == 0 {
				t.Armed = false // disarm before deleting, as some personalities do
			}
			k.Objects.Delete(t.Obj.ID)
		default:
			for i := 1 + r.next(8); i > 0; i-- {
				r.tick()
			}
		}
	}
	for i := 0; i < n; i++ {
		r.tick()
	}
}

// faultingTicks corrupts the heap, so heap-churning timer callbacks and
// tasks fault and unwind their tick part-way through, then ticks n times.
func (r *boundsRun) faultingTicks(n int) {
	clear(r.k.Heap.slab[:heapHeader])
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(Unwind); !ok {
						panic(p)
					}
					r.faults++
				}
			}()
			r.tick()
		}()
	}
}

// TestScanBoundsExact runs one script on twin kernels, one skipping timer
// and sleeper scans below their bounds and one scanning on every tick, and
// requires the same blocks, clock and task and timer state tick for tick.
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
			res.run.script(800, 3000)
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
	var woken, fired int
	last := fs[len(fs)-1]
	for _, ts := range last.Tasks {
		if ts.WakeTick > 0 {
			woken++
		}
	}
	for _, ts := range last.Timers {
		if ts.Fires > 0 {
			fired++
		}
	}
	if woken == 0 || fired == 0 {
		t.Fatalf("script exercised %d sleepers and %d firing timers", woken, fired)
	}
	if bounded.allocs != 0 {
		t.Errorf("warm Tick allocates %.1f times", bounded.allocs)
	}
}
