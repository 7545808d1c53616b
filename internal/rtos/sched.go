package rtos

import (
	"fmt"
	"math"
	"math/bits"
)

// TaskState is a task's scheduling state.
type TaskState uint8

// Task states.
const (
	TaskReady TaskState = iota
	TaskRunning
	TaskSleeping
	TaskSuspended
	TaskDead
)

func (s TaskState) String() string {
	switch s {
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskSleeping:
		return "sleeping"
	case TaskSuspended:
		return "suspended"
	case TaskDead:
		return "dead"
	default:
		return "?"
	}
}

// Priority bounds (0 is highest, like most RTOS conventions after mapping).
const (
	PrioMax   = 0
	PrioMin   = 31
	PrioCount = 32
)

// Stack size bounds enforced by task creation.
const (
	StackMin = 128
	StackMax = 64 * 1024
)

// NumBehaviors is how many synthetic task-body behaviours exist.
const NumBehaviors = 4

// Task is a kernel task/thread control block. Its state and priority change
// only through Scheduler.SetState and SetPrio, which keep the pick keys and
// ready bits.
type Task struct {
	Obj       *Object
	BasePrio  int // original priority (mutex inheritance restores to it)
	StackSize int
	Behavior  int
	WakeTick  uint64
	RunCount  uint64
	prio      int
	state     TaskState
	idx       int // index in Scheduler.tasks and keys
	counter   uint64
}

// Prio returns the task's priority.
func (t *Task) Prio() int { return t.prio }

// State returns the task's scheduling state.
func (t *Task) State() TaskState { return t.state }

// keyIdle is the pick key of a task that is neither ready nor running: above
// every priority, so pick never takes it.
const keyIdle = 0xFF

// Scheduler is a 32-level priority scheduler with round-robin within a
// level, driven by the kernel tick.
type Scheduler struct {
	k       *Kernel
	tasks   []*Task
	current *Task
	// keys[i] is tasks[i]'s pick key: its priority while it is ready or
	// running, keyIdle otherwise, and bit i of ready is set while keys[i]
	// is not keyIdle. Create, SetState and SetPrio keep both through
	// setKey, so pick reads one byte per ready task and skips the rest.
	keys  []uint8
	ready []uint64

	fnTick   *Fn
	fnPick   *Fn
	fnSwitch *Fn
	bodies   [NumBehaviors]*Fn

	ctxSwitches uint64
	rrCursor    int
	// minWake is a lower bound on every sleeping task's WakeTick, so a tick
	// below it has no sleeper to wake and skips the wake scan. Whoever puts
	// a task to sleep or moves its WakeTick earlier lowers it; each wake
	// scan recomputes it.
	minWake uint64
}

func newScheduler(k *Kernel) *Scheduler {
	return &Scheduler{k: k}
}

// InitSched registers the scheduler's instrumented functions under the
// personality's symbol names (e.g. xTaskIncrementTick vs z_sched_tick).
func (k *Kernel) InitSched(tickName, pickName, switchName, file string) {
	s := k.Sched
	s.fnTick = k.Fn(tickName, file, 88, 8)
	s.fnPick = k.Fn(pickName, file, 160, 6)
	s.fnSwitch = k.Fn(switchName, file, 215, 4)
	for i := range s.bodies {
		s.bodies[i] = k.Fn(behaviorName(i), "tasks/bodies.c", 10+40*i, 6)
	}
}

func behaviorName(i int) string {
	switch i {
	case 0:
		return "__task_body_counter"
	case 1:
		return "__task_body_yielder"
	case 2:
		return "__task_body_sleeper"
	case 3:
		return "__task_body_churner"
	default:
		return "__task_body_unknown"
	}
}

// Create validates and creates a task. The entry behaviour is synthetic but
// branchy, so scheduled tasks generate real coverage and real heap traffic.
func (s *Scheduler) Create(name string, prio, stackSize, behavior int) (*Object, Errno) {
	if prio < PrioMax || prio > PrioMin {
		return nil, ErrInval
	}
	if stackSize < StackMin || stackSize > StackMax {
		return nil, ErrInval
	}
	t := &Task{
		BasePrio:  prio,
		StackSize: stackSize,
		Behavior:  ((behavior % NumBehaviors) + NumBehaviors) % NumBehaviors,
		prio:      prio,
		state:     TaskReady,
		idx:       len(s.tasks),
	}
	t.Obj = s.k.Objects.New(ObjTask, name, t)
	s.tasks = append(s.tasks, t)
	s.keys = append(s.keys, keyIdle)
	if len(s.ready)*64 < len(s.keys) {
		s.ready = append(s.ready, 0)
	}
	s.setKey(t)
	return t.Obj, OK
}

// SetState moves t to state st.
func (s *Scheduler) SetState(t *Task, st TaskState) {
	t.state = st
	s.setKey(t)
}

// SetPrio sets t's priority, which must lie in [PrioMax, PrioMin]; callers
// validate what the program passed.
func (s *Scheduler) SetPrio(t *Task, prio int) {
	if prio < PrioMax || prio > PrioMin {
		panic(fmt.Sprintf("rtos: task priority %d outside [%d, %d]", prio, PrioMax, PrioMin))
	}
	t.prio = prio
	s.setKey(t)
}

// setKey stores t's pick key and ready bit.
func (s *Scheduler) setKey(t *Task) {
	word, bit := &s.ready[t.idx/64], uint64(1)<<(t.idx%64)
	if t.state == TaskReady || t.state == TaskRunning {
		s.keys[t.idx] = uint8(t.prio)
		*word |= bit
	} else {
		s.keys[t.idx] = keyIdle
		*word &^= bit
	}
}

// Current returns the running task, or nil before any slice has run.
func (s *Scheduler) Current() *Task { return s.current }

// ContextSwitches returns the context-switch count since boot.
func (s *Scheduler) ContextSwitches() uint64 { return s.ctxSwitches }

// TaskCount returns the number of non-dead tasks.
func (s *Scheduler) TaskCount() int {
	n := 0
	for _, t := range s.tasks {
		if t.state != TaskDead {
			n++
		}
	}
	return n
}

// tick advances the scheduler one tick: wakes sleepers, picks the next task
// and runs one slice of its body.
func (s *Scheduler) tick() {
	if s.fnTick == nil {
		return // personality without a scheduler surface
	}
	f := s.fnTick
	f.Enter()
	if now := s.k.Ticks; now >= s.minWake {
		next := uint64(math.MaxUint64)
		for _, t := range s.tasks {
			if t.state != TaskSleeping {
				continue
			}
			if t.WakeTick > now {
				next = min(next, t.WakeTick)
				continue
			}
			f.B(1)
			s.SetState(t, TaskReady)
		}
		s.minWake = next
	}
	f.B(2)
	next := s.pick()
	if next != s.current {
		s.contextSwitch(next)
	}
	f.Exit()
	if s.current != nil {
		s.runSlice(s.current)
	} else {
		s.k.IdleSlice()
	}
}

func (s *Scheduler) pick() *Task {
	f := s.fnPick
	f.Enter()
	defer f.Exit()
	start := 0
	if n := len(s.keys); n > 0 {
		start = s.rrCursor % n
	}
	// Each record of the rotation takes B(1). The scan has no other effect,
	// so they are taken after it, in one run.
	n, best := s.rotation(start)
	for range n {
		f.B(1)
	}
	s.rrCursor++
	if best < 0 {
		f.B(3)
		return nil
	}
	f.B(2)
	return s.tasks[best]
}

// rotation scans the round-robin rotation, tasks from start on and then
// wrapping around, for its records: the first ready or running task and each
// one with a strictly higher priority (lower key) than every one before it.
// It returns how many there are and the last one's index, or -1.
//
// Other tasks hold keyIdle, which is never a record, so the scan visits only
// the set bits of ready: the start word's from start on, the words after it
// and, wrapping, those before it, and last the start word's below start. It
// stops at key 0, which no key is below. The comparison has no branch on the
// keys (the compiler turns it into conditional moves), so keys in no
// learnable order cost no mispredictions.
func (s *Scheduler) rotation(start int) (n, best int) {
	keys, ready := s.keys, s.ready
	best, key := -1, keyIdle
	if len(ready) == 0 {
		return 0, best
	}
	w, shift := start/64, uint(start%64)
	for step := 0; step <= len(ready) && key > 0; step++ {
		word := ready[w]
		if step == 0 {
			word &= ^uint64(0) << shift
		} else if step == len(ready) {
			word &= 1<<shift - 1
		}
		for ; word != 0 && key > 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			k := int(keys[i])
			if k < key {
				n, best = n+1, i
			}
			key = min(key, k)
		}
		if w++; w == len(ready) {
			w = 0
		}
	}
	return n, best
}

func (s *Scheduler) contextSwitch(next *Task) {
	f := s.fnSwitch
	f.Enter()
	if s.current != nil && s.current.state == TaskRunning {
		f.B(1)
		s.SetState(s.current, TaskReady)
	}
	if next != nil {
		f.B(2)
		s.SetState(next, TaskRunning)
	}
	s.current = next
	s.ctxSwitches++
	f.Exit()
}

// runSlice executes one time slice of the task's synthetic body.
func (s *Scheduler) runSlice(t *Task) {
	t.RunCount++
	t.counter++
	f := s.bodies[t.Behavior]
	f.Enter()
	switch t.Behavior {
	case 0: // counter: pure compute with a parity branch
		if t.counter%2 == 0 {
			f.B(1)
		} else {
			f.B(2)
		}
	case 1: // yielder: goes ready immediately, occasionally bumps cursor
		f.B(1)
		if t.counter%5 == 0 {
			f.B(3)
		}
	case 2: // sleeper: sleeps a few ticks every slice
		f.B(1)
		s.SetState(t, TaskSleeping)
		t.WakeTick = s.k.Ticks + 2 + t.counter%5
		s.minWake = min(s.minWake, t.WakeTick)
	case 3: // churner: small heap alloc/free churn when a heap exists
		if h := s.k.Heap; h != nil {
			f.B(1)
			if p := h.Alloc(16 + int(t.counter%48)); p != 0 {
				f.B(3)
				h.Free(p)
			} else {
				f.B(4)
			}
		}
	}
	f.B(5)
	f.Exit()
}

// IdleSlice runs the idle task for a moment at a stable PC — what a blocked
// system does, and what the PC-stall watchdog latches onto.
func (k *Kernel) IdleSlice() {
	k.Env.Core.Idle(k.idleFn.SF.Block(0), 8)
}

// Sleep blocks the current context for n ticks, driving the scheduler.
func (k *Kernel) Sleep(n int) {
	for i := 0; i < n; i++ {
		k.Tick()
	}
}
