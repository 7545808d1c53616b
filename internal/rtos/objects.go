package rtos

// ObjType classifies kernel objects.
type ObjType uint8

// Kernel object types.
const (
	ObjNone ObjType = iota
	ObjTask
	ObjQueue
	ObjSem
	ObjMutex
	ObjEvent
	ObjTimer
	ObjPool
	ObjDevice
	ObjSocket
	ObjHeapRef
)

func (t ObjType) String() string {
	switch t {
	case ObjTask:
		return "task"
	case ObjQueue:
		return "queue"
	case ObjSem:
		return "semaphore"
	case ObjMutex:
		return "mutex"
	case ObjEvent:
		return "event"
	case ObjTimer:
		return "timer"
	case ObjPool:
		return "mempool"
	case ObjDevice:
		return "device"
	case ObjSocket:
		return "socket"
	case ObjHeapRef:
		return "heapref"
	default:
		return "none"
	}
}

// Object is one kernel object with a handle the agent passes back and forth.
type Object struct {
	ID          uint32
	Type        ObjType
	Name        string
	Data        any
	CreatedTick uint64
	// alive is written only by Table.New and Table.Delete, which keep the
	// table's live counts.
	alive bool
}

// Alive reports whether the object has not been deleted.
func (o *Object) Alive() bool { return o.alive }

// Table is the kernel object/handle registry.
type Table struct {
	k     *Kernel
	objs  map[uint32]*Object
	next  uint32
	fnNew *Fn
	// live counts the live objects and byType the live objects of each
	// type. New and Delete, the only writers of Object.alive, keep both.
	live   int
	byType [ObjHeapRef + 1]int
}

func newTable(k *Kernel) *Table {
	t := &Table{k: k, objs: make(map[uint32]*Object), next: 0x1000}
	t.fnNew = k.Fn("__object_register", "kern/object.c", 44, 14)
	return t
}

// New registers an object and returns it with a fresh handle. The registry's
// growth paths (initial table, doubling, per-type list heads) are distinct
// blocks, so populating the kernel with many objects — something only long
// call sequences do — exposes code single calls never touch.
func (t *Table) New(typ ObjType, name string, data any) *Object {
	t.next++
	o := &Object{ID: t.next, Type: typ, Name: name, Data: data, alive: true, CreatedTick: t.k.Ticks}
	t.objs[o.ID] = o
	t.live++
	t.byType[typ]++
	f := t.fnNew
	f.Enter()
	f.B(1 + int(typ)%4)
	live := t.Count(ObjNone)
	switch {
	case live <= 1:
		f.B(5)
	case live <= 4:
		f.B(6)
	case live <= 8:
		f.B(7)
	case live <= 16:
		f.B(8)
	case live <= 32:
		f.B(9)
	default:
		f.B(10)
	}
	perType := t.Count(typ)
	if perType > 4 {
		f.B(11)
	}
	if perType > 12 {
		f.B(12)
	}
	f.Exit()
	return o
}

// Get returns the object for a handle, alive or dead, or nil.
func (t *Table) Get(id uint32) *Object { return t.objs[id] }

// GetTyped resolves a handle expecting a live object of the given type.
func (t *Table) GetTyped(id uint32, typ ObjType) (*Object, Errno) {
	o := t.objs[id]
	if o == nil {
		return nil, ErrNotFound
	}
	if !o.alive {
		return nil, ErrState
	}
	if o.Type != typ {
		return nil, ErrType
	}
	return o, OK
}

// Delete marks an object dead. The handle stays resolvable (dead), because
// use-after-delete through stale handles is a behaviour the fuzzer must be
// able to provoke.
func (t *Table) Delete(id uint32) Errno {
	o := t.objs[id]
	if o == nil {
		return ErrNotFound
	}
	if !o.alive {
		return ErrState
	}
	o.alive = false
	t.live--
	t.byType[o.Type]--
	return OK
}

// Count returns the number of live objects of the given type (any type when
// typ is ObjNone, so the untyped objects some personalities register count
// only in the total).
func (t *Table) Count(typ ObjType) int {
	if typ == ObjNone {
		return t.live
	}
	return t.byType[typ]
}
