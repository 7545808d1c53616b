// Package pokos is the POK (PoKOS) personality: an ARINC-653-flavoured
// partitioned kernel with sampling/queuing ports, used by the paper's
// Gustave comparison (Table 3). No Table-2 bugs live here; the experiment on
// this OS is purely a coverage race.
package pokos

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/os/apiutil"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/rtos"
)

// Name is the canonical OS identifier.
const Name = "pokos"

// Version matches the paper's evaluated revision.
const Version = "b2e1cc3"

const partTable = `# name, type, offset, size
bootloader, app, 0x0, 0x10000
kernel, app, 0x10000, 0x200000
config, data, 0x210000, 0x10000
`

// Partition operating modes (ARINC 653).
const (
	modeIdle = iota
	modeColdStart
	modeWarmStart
	modeNormal
	modeCount
)

// samplingPort is a single-message overwriting port.
type samplingPort struct {
	buf      uint64
	size     int
	valid    bool
	writes   uint64
	lastTick uint64
}

// OS is one booted PoKOS instance.
type OS struct {
	periphs []*rtos.Periph
	drv     *rtos.Driver
	env     *board.Env
	k       *rtos.Kernel
	reg     *apiutil.Registrar

	fnFatal *rtos.Fn
	fnCons  *rtos.Fn

	mode int
}

// Info returns the host-visible build description.
func Info() *osinfo.Info {
	return &osinfo.Info{
		Name:               Name,
		Display:            "PoKOS",
		Version:            Version,
		PartTableText:      partTable,
		Builder:            Build,
		ExceptionSyms:      []string{"pok_fatal_error"},
		Headers:            headers(),
		APINames:           apiOrder(),
		BaseCodeBytes:      1_760_000,
		BytesPerBlock:      56,
		InstrBytesPerBlock: 180,
		BuildID:            0xB2E1CC30,
	}
}

// Build constructs the PoKOS firmware.
func Build(env *board.Env) (board.Firmware, error) {
	k := rtos.NewKernel(env, "PoKOS")
	k.InitSched("pok_sched_tick", "pok_sched_elect", "pok_context_switch", "core/sched.c")

	heapBase := env.ScratchBase + agent.ArenaSize
	heapEnd := env.RAM.End() - 4096
	if heapBase+16*1024 > heapEnd {
		return nil, fmt.Errorf("pokos: RAM too small for heap")
	}
	k.NewHeap(heapBase, int(heapEnd-heapBase), "pok_alloc", "pok_release", "pok_heap_lock", "core/alloc.c")

	o := &OS{env: env, k: k, mode: modeColdStart}
	o.fnFatal = k.Fn("pok_fatal_error", "core/fatal.c", 30, 2)
	o.fnCons = k.Fn("pok_cons_write", "drivers/cons.c", 55, 2)
	k.ExceptionFn = o.fnFatal
	k.ConsoleWrite = o.consoleWrite

	o.reg = &apiutil.Registrar{K: k, File: "core/pokos_api.c"}
	o.drv = k.NewDriver("dma", "pok_dev_open", "pok_dev_ctl", "pok_dev_close", "drivers/dev.c")
	o.periphs = append(o.periphs, k.NewPeriph("gpio", "pok_gpio_config", "pok_gpio_read", "drivers/gpio.c"))
	o.periphs = append(o.periphs, k.NewPeriph("can", "pok_can_config", "pok_can_read", "drivers/can.c"))
	o.buildTable()
	names := o.reg.Names()
	want := apiOrder()
	if len(names) != len(want) {
		return nil, fmt.Errorf("pokos: API table drift: %d registered, %d declared", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			return nil, fmt.Errorf("pokos: API order drift at %d: %s != %s", i, names[i], want[i])
		}
	}
	return agent.New(env, o), nil
}

func (o *OS) consoleWrite(s string) {
	o.fnCons.Enter()
	o.fnCons.B(1)
	o.env.UART.WriteString(s)
	o.fnCons.Exit()
}

// Name implements agent.Target.
func (o *OS) Name() string { return Name }

// Kernel implements agent.Target.
func (o *OS) Kernel() *rtos.Kernel { return o.k }

// APIs implements agent.Target.
func (o *OS) APIs() []agent.API { return o.reg.Table }

func apiOrder() []string {
	return []string{
		"pok_thread_create", "pok_thread_sleep", "pok_thread_suspend", "pok_thread_resume",
		"pok_partition_set_mode", "pok_partition_get_mode",
		"pok_port_sampling_create", "pok_port_sampling_write", "pok_port_sampling_read",
		"pok_port_queuing_create", "pok_port_queuing_send", "pok_port_queuing_receive",
		"pok_sem_create", "pok_sem_wait", "pok_sem_signal",
		"pok_event_create", "pok_event_signal", "pok_event_wait",
		"pok_time_get", "pok_buffer_alloc", "pok_buffer_free",
		"pok_dev_open", "pok_dev_ctl", "pok_dev_close",
		"pok_gpio_config", "pok_gpio_read", "pok_can_config", "pok_can_read",
	}
}

func (o *OS) buildTable() {
	k := o.k
	r := o.reg
	ar := apiutil.Arg

	r.Reg("pok_thread_create", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		prio := int(uint32(ar(a, 0)))
		period := uint32(ar(a, 1))
		if o.mode == modeNormal {
			f.B(1) // ARINC: no thread creation in NORMAL mode
			return 0, rtos.ErrState
		}
		if prio > rtos.PrioMin {
			f.B(2)
			return 0, rtos.ErrInval
		}
		if period > 1_000_000 {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		obj, e := k.Sched.Create("pok_thread", prio, 1024, int(ar(a, 2)))
		if e.Failed() {
			f.B(5)
			return 0, e
		}
		f.B(6)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("pok_thread_sleep", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ms := uint32(ar(a, 0))
		if ms == 0 {
			f.B(1)
			return 0, rtos.OK
		}
		if ms > 5000 {
			f.B(2)
			ms = 5000
		}
		f.B(3)
		k.Sleep(int(ms))
		return 0, rtos.OK
	})

	r.Reg("pok_thread_suspend", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		k.Sched.SetState(obj.Data.(*rtos.Task), rtos.TaskSuspended)
		return 0, rtos.OK
	})

	r.Reg("pok_thread_resume", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		t := obj.Data.(*rtos.Task)
		if t.State() != rtos.TaskSuspended {
			f.B(2)
			return 0, rtos.ErrState
		}
		f.B(3)
		k.Sched.SetState(t, rtos.TaskReady)
		return 0, rtos.OK
	})

	r.Reg("pok_partition_set_mode", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		mode := int(uint32(ar(a, 0)))
		if mode < 0 || mode >= modeCount {
			f.B(1)
			return 0, rtos.ErrInval
		}
		switch {
		case mode == o.mode:
			f.B(2)
			return 0, rtos.OK
		case o.mode == modeNormal && mode == modeColdStart:
			f.B(3) // restart request
		case mode == modeNormal:
			f.B(4)
			k.Kprintf("pok: partition entering NORMAL mode\n")
		default:
			f.B(5)
		}
		f.B(6)
		o.mode = mode
		return 0, rtos.OK
	})

	r.Reg("pok_partition_get_mode", 2, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return uint64(o.mode), rtos.OK
	})

	r.Reg("pok_port_sampling_create", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 16, "sport")
		size := int(uint32(ar(a, 1)))
		if size <= 0 || size > 1024 {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		buf := k.Heap.Alloc(size)
		if buf == 0 {
			f.B(3)
			return 0, rtos.ErrNoMem
		}
		f.B(4)
		sp := &samplingPort{buf: buf, size: size}
		obj := k.Objects.New(rtos.ObjSocket, name, sp)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("pok_port_sampling_write", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSocket)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		sp, ok := obj.Data.(*samplingPort)
		if !ok {
			f.B(2)
			return 0, rtos.ErrType
		}
		data := apiutil.Bytes(k, ar(a, 1), int(uint32(ar(a, 2))), sp.size)
		if len(data) == 0 {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		k.WriteRAM(sp.buf, data)
		sp.valid = true
		sp.writes++
		sp.lastTick = k.Ticks
		return 0, rtos.OK
	})

	r.Reg("pok_port_sampling_read", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSocket)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		sp, ok := obj.Data.(*samplingPort)
		if !ok {
			f.B(2)
			return 0, rtos.ErrType
		}
		if !sp.valid {
			f.B(3)
			return 0, rtos.ErrEmpty
		}
		f.B(4)
		freshness := k.Ticks - sp.lastTick
		return freshness, rtos.OK
	})

	r.Reg("pok_port_queuing_create", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		size := int(uint32(ar(a, 0)))
		depth := int(uint32(ar(a, 1)))
		obj, e := k.NewQueue("qport", size, depth)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("pok_port_queuing_send", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		ptr := ar(a, 1)
		if ptr == 0 {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		item := k.ReadRAM(ptr, q.ItemSize)
		if e := q.Send(item, int(uint32(ar(a, 2)))); e.Failed() {
			f.B(4)
			return 0, e
		}
		f.B(5)
		return 0, rtos.OK
	})

	r.Reg("pok_port_queuing_receive", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		item, e := obj.Data.(*rtos.Queue).Recv(int(uint32(ar(a, 1))))
		if e.Failed() {
			f.B(2)
			return 0, e
		}
		f.B(3)
		var v uint64
		for i := 0; i < len(item) && i < 8; i++ {
			v |= uint64(item[i]) << (8 * i)
		}
		return v, rtos.OK
	})

	r.Reg("pok_sem_create", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewSemaphore("poksem", int(uint32(ar(a, 0))), int(uint32(ar(a, 1))))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("pok_sem_wait", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Take(int(uint32(ar(a, 1))))
	})

	r.Reg("pok_sem_signal", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Give()
	})

	r.Reg("pok_event_create", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewEvent("pokevent")
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("pok_event_signal", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Event).Send(uint32(ar(a, 1)))
	})

	r.Reg("pok_event_wait", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		got, e := obj.Data.(*rtos.Event).Recv(uint32(ar(a, 1)), rtos.EvtClear, int(uint32(ar(a, 2))))
		if e.Failed() {
			f.B(2)
			return 0, e
		}
		f.B(3)
		return uint64(got), rtos.OK
	})

	r.Reg("pok_time_get", 2, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return uint64(k.Env.Clock.Now()), rtos.OK
	})

	r.Reg("pok_buffer_alloc", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		p := k.Heap.Alloc(int(uint32(ar(a, 0))))
		if p == 0 {
			f.B(1)
			return 0, rtos.ErrNoMem
		}
		f.B(2)
		return p, rtos.OK
	})

	r.Reg("pok_buffer_free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Heap.Free(ar(a, 0))
	})

	r.Reg("pok_dev_open", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		h, e := o.drv.Open()
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("pok_dev_ctl", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ret, e := o.drv.Ctl(uint32(ar(a, 0)), uint32(ar(a, 1)), uint32(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return ret, e
		}
		f.B(2)
		return ret, rtos.OK
	})

	r.Reg("pok_dev_close", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.drv.Close(uint32(ar(a, 0)))
	})

	r.Reg("pok_gpio_config", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[0].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("pok_gpio_read", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[0].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("pok_can_config", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[1].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("pok_can_read", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[1].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})
}
