package rtos

import "math"

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

// Task is a kernel task/thread control block.
type Task struct {
	Obj       *Object
	Prio      int
	BasePrio  int // original priority (mutex inheritance restores to it)
	StackSize int
	Behavior  int
	State     TaskState
	WakeTick  uint64
	RunCount  uint64
	counter   uint64
}

// Scheduler is a 32-level priority scheduler with round-robin within a
// level, driven by the kernel tick.
type Scheduler struct {
	k       *Kernel
	tasks   []*Task
	current *Task

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
		Prio:      prio,
		BasePrio:  prio,
		StackSize: stackSize,
		Behavior:  ((behavior % NumBehaviors) + NumBehaviors) % NumBehaviors,
		State:     TaskReady,
	}
	t.Obj = s.k.Objects.New(ObjTask, name, t)
	s.tasks = append(s.tasks, t)
	return t.Obj, OK
}

// Current returns the running task, or nil before any slice has run.
func (s *Scheduler) Current() *Task { return s.current }

// ContextSwitches returns the context-switch count since boot.
func (s *Scheduler) ContextSwitches() uint64 { return s.ctxSwitches }

// TaskCount returns the number of non-dead tasks.
func (s *Scheduler) TaskCount() int {
	n := 0
	for _, t := range s.tasks {
		if t.State != TaskDead {
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
			if t.State != TaskSleeping {
				continue
			}
			if t.WakeTick > now {
				next = min(next, t.WakeTick)
				continue
			}
			f.B(1)
			t.State = TaskReady
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
	var best *Task
	start := 0
	if n := len(s.tasks); n > 0 {
		start = s.rrCursor % n
	}
	// The round-robin rotation: tasks from the cursor on, then wrap around.
	for _, run := range [2][]*Task{s.tasks[start:], s.tasks[:start]} {
		for _, t := range run {
			if t.State != TaskReady && t.State != TaskRunning {
				continue
			}
			if best == nil || t.Prio < best.Prio {
				f.B(1)
				best = t
			}
		}
	}
	s.rrCursor++
	if best != nil {
		f.B(2)
	} else {
		f.B(3)
	}
	return best
}

func (s *Scheduler) contextSwitch(next *Task) {
	f := s.fnSwitch
	f.Enter()
	if s.current != nil && s.current.State == TaskRunning {
		f.B(1)
		s.current.State = TaskReady
	}
	if next != nil {
		f.B(2)
		next.State = TaskRunning
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
		t.State = TaskSleeping
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
