package rtos

// WaitForever is the timeout value meaning "block until satisfied".
const WaitForever = -1

// IPC parameter bounds enforced at creation.
const (
	QueueItemMax  = 1024
	QueueDepthMax = 256
	SemCountMax   = 0xFFFF
)

// ipcFns are the shared kernel-core functions behind every personality's IPC
// wrappers (the wrappers carry the OS-specific symbols and quirks).
type ipcFns struct {
	qPush, qPop *Fn
	semOps      *Fn
	mtxOps      *Fn
	evtOps      *Fn
	wait        *Fn
}

// initIPC registers the shared IPC core symbols at kernel construction.
func (k *Kernel) initIPC(file string) {
	k.ipc = &ipcFns{
		qPush:  k.Fn("__ipc_queue_push", file, 40, 12),
		qPop:   k.Fn("__ipc_queue_pop", file, 102, 12),
		semOps: k.Fn("__ipc_sem_ops", file, 170, 10),
		mtxOps: k.Fn("__ipc_mutex_ops", file, 230, 7),
		evtOps: k.Fn("__ipc_event_ops", file, 300, 11),
		wait:   k.Fn("__ipc_wait", file, 360, 4),
	}
}

// waitUntil drives the scheduler until cond holds or the tick timeout
// expires. timeout==0 polls once; WaitForever blocks indefinitely (the
// liveness-watchdog-visible degraded state when nothing can satisfy cond).
func (k *Kernel) waitUntil(timeout int, cond func() bool) bool {
	if cond() {
		return true
	}
	f := k.ipc.wait
	f.Enter()
	defer f.Exit()
	if timeout == 0 {
		f.B(1)
		return false
	}
	if timeout < 0 {
		f.B(2)
		for !cond() {
			k.Tick()
		}
		return true
	}
	f.B(3)
	for i := 0; i < timeout; i++ {
		k.Tick()
		if cond() {
			return true
		}
	}
	return false
}

// Queue is a bounded message queue whose item storage lives in the target
// heap, so queue payloads are real RAM bytes the debug link can inspect and
// kernel bugs can corrupt.
type Queue struct {
	Obj      *Object
	ItemSize int
	Depth    int
	buf      uint64 // heap allocation holding Depth*ItemSize bytes
	head     int
	count    int
	k        *Kernel
}

// NewQueue validates parameters and allocates the backing storage.
func (k *Kernel) NewQueue(name string, itemSize, depth int) (*Object, Errno) {
	if itemSize <= 0 || itemSize > QueueItemMax || depth <= 0 || depth > QueueDepthMax {
		return nil, ErrInval
	}
	buf := k.Heap.Alloc(itemSize * depth)
	if buf == 0 {
		return nil, ErrNoMem
	}
	q := &Queue{ItemSize: itemSize, Depth: depth, buf: buf, k: k}
	q.Obj = k.Objects.New(ObjQueue, name, q)
	return q.Obj, OK
}

// Count returns the number of queued items.
func (q *Queue) Count() int { return q.count }

// Send enqueues one item (truncated/zero-padded to ItemSize), waiting up to
// timeout ticks for space.
func (q *Queue) Send(item []byte, timeout int) Errno {
	k := q.k
	f := k.ipc.qPush
	f.Enter()
	defer f.Exit()
	if !k.waitUntil(timeout, func() bool { return q.count < q.Depth }) {
		f.B(1)
		return ErrFull
	}
	f.B(2)
	slot := (q.head + q.count) % q.Depth
	cell := make([]byte, q.ItemSize)
	copy(cell, item)
	k.WriteRAM(q.buf+uint64(slot*q.ItemSize), cell)
	q.count++
	// Fill-level classes: the ring-wrap, watermark and queue-full paths are
	// distinct code in real queues, and reaching them needs accumulated
	// state (repeated sends), not just one lucky call.
	f.B(4 + fillClass(q.count, q.Depth))
	f.B(3)
	return OK
}

// fillClass buckets a fill level into empty/low/high/full (0..3).
func fillClass(count, depth int) int {
	switch {
	case count == 0:
		return 0
	case count == depth:
		return 3
	case count*2 >= depth:
		return 2
	default:
		return 1
	}
}

// Recv dequeues one item, waiting up to timeout ticks for data.
func (q *Queue) Recv(timeout int) ([]byte, Errno) {
	k := q.k
	f := k.ipc.qPop
	f.Enter()
	defer f.Exit()
	if !k.waitUntil(timeout, func() bool { return q.count > 0 }) {
		f.B(1)
		return nil, ErrEmpty
	}
	f.B(2)
	item := k.ReadRAM(q.buf+uint64(q.head*q.ItemSize), q.ItemSize)
	q.head = (q.head + 1) % q.Depth
	q.count--
	f.B(4 + fillClass(q.count, q.Depth))
	if q.head == 0 {
		f.B(8) // ring wrapped
	}
	f.B(3)
	return item, OK
}

// Destroy frees the backing storage and kills the object.
func (q *Queue) Destroy() Errno {
	q.k.Heap.Free(q.buf)
	return q.k.Objects.Delete(q.Obj.ID)
}

// Semaphore is a counting semaphore.
type Semaphore struct {
	Obj   *Object
	Count int
	Max   int
	k     *Kernel
}

// NewSemaphore validates and creates a semaphore.
func (k *Kernel) NewSemaphore(name string, initial, max int) (*Object, Errno) {
	if max <= 0 || max > SemCountMax || initial < 0 || initial > max {
		return nil, ErrInval
	}
	s := &Semaphore{Count: initial, Max: max, k: k}
	s.Obj = k.Objects.New(ObjSem, name, s)
	return s.Obj, OK
}

// Take decrements the count, waiting up to timeout ticks.
func (s *Semaphore) Take(timeout int) Errno {
	k := s.k
	f := k.ipc.semOps
	f.Enter()
	defer f.Exit()
	if !k.waitUntil(timeout, func() bool { return s.Count > 0 }) {
		f.B(1)
		return ErrTimeout
	}
	f.B(2)
	s.Count--
	f.B(5 + countClass(s.Count, s.Max))
	return OK
}

// countClass buckets a semaphore count into zero/one/some/high (0..3).
func countClass(count, max int) int {
	switch {
	case count == 0:
		return 0
	case count == 1:
		return 1
	case count*2 >= max:
		return 3
	default:
		return 2
	}
}

// Give increments the count, failing at the cap.
func (s *Semaphore) Give() Errno {
	k := s.k
	f := k.ipc.semOps
	f.Enter()
	defer f.Exit()
	if s.Count >= s.Max {
		f.B(3)
		return ErrFull
	}
	f.B(4)
	s.Count++
	f.B(5 + countClass(s.Count, s.Max))
	return OK
}

// Mutex is a non-recursive-by-default mutex with basic priority inheritance.
type Mutex struct {
	Obj       *Object
	Owner     *Task
	Ownerless int // lock depth when taken outside a task context (the agent)
	Recursive bool
	k         *Kernel
}

// NewMutex creates a mutex.
func (k *Kernel) NewMutex(name string, recursive bool) (*Object, Errno) {
	m := &Mutex{Recursive: recursive, k: k}
	m.Obj = k.Objects.New(ObjMutex, name, m)
	return m.Obj, OK
}

// Lock acquires the mutex. Re-acquiring a non-recursive mutex from the same
// context deadlocks after the wait — a watchdog-visible degraded state.
func (m *Mutex) Lock(timeout int) Errno {
	k := m.k
	f := k.ipc.mtxOps
	f.Enter()
	defer f.Exit()
	cur := k.Sched.Current()
	held := func() bool {
		if cur != nil {
			return m.Owner == nil && m.Ownerless == 0
		}
		return m.Owner == nil && (m.Ownerless == 0 || m.Recursive)
	}
	if cur == nil && m.Ownerless > 0 && m.Recursive {
		f.B(1)
		m.Ownerless++
		return OK
	}
	if !k.waitUntil(timeout, held) {
		f.B(2)
		return ErrTimeout
	}
	f.B(3)
	if cur != nil {
		m.Owner = cur
		// Priority inheritance bookkeeping target.
		if cur.prio > cur.BasePrio {
			f.B(4)
			k.Sched.SetPrio(cur, cur.BasePrio)
		}
	} else {
		m.Ownerless++
	}
	return OK
}

// Unlock releases the mutex; releasing an unheld mutex is an EPERM.
func (m *Mutex) Unlock() Errno {
	k := m.k
	f := k.ipc.mtxOps
	f.Enter()
	defer f.Exit()
	if m.Owner == nil && m.Ownerless == 0 {
		f.B(5)
		return ErrPerm
	}
	f.B(6)
	if m.Ownerless > 0 {
		m.Ownerless--
	} else {
		m.Owner = nil
	}
	return OK
}

// Event is an event-flag group.
type Event struct {
	Obj  *Object
	Bits uint32
	k    *Kernel
}

// Event receive options.
const (
	EvtAll   = 1 << 0 // require all bits in mask
	EvtClear = 1 << 1 // clear matched bits on return
)

// NewEvent creates an event group.
func (k *Kernel) NewEvent(name string) (*Object, Errno) {
	e := &Event{k: k}
	e.Obj = k.Objects.New(ObjEvent, name, e)
	return e.Obj, OK
}

// Send sets bits in the group. Setting zero bits is invalid.
func (e *Event) Send(set uint32) Errno {
	k := e.k
	f := k.ipc.evtOps
	f.Enter()
	defer f.Exit()
	if set == 0 {
		f.B(1)
		return ErrInval
	}
	f.B(2)
	e.Bits |= set
	f.B(7 + popcountClass(e.Bits))
	return OK
}

// popcountClass buckets a bitmask's population into 1/few/many/huge (0..3).
func popcountClass(bits uint32) int {
	n := 0
	for b := bits; b != 0; b &= b - 1 {
		n++
	}
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 12:
		return 2
	default:
		return 3
	}
}

// Recv waits for bits per the options, returning the matched set.
func (e *Event) Recv(mask uint32, opts uint32, timeout int) (uint32, Errno) {
	k := e.k
	f := k.ipc.evtOps
	f.Enter()
	defer f.Exit()
	if mask == 0 {
		f.B(3)
		return 0, ErrInval
	}
	match := func() bool {
		if opts&EvtAll != 0 {
			return e.Bits&mask == mask
		}
		return e.Bits&mask != 0
	}
	if !k.waitUntil(timeout, match) {
		f.B(4)
		return 0, ErrTimeout
	}
	f.B(5)
	got := e.Bits & mask
	f.B(7 + popcountClass(got))
	if opts&EvtClear != 0 {
		f.B(6)
		e.Bits &^= got
	}
	return got, OK
}
