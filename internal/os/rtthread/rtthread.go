// Package rtthread is the RT-Thread personality. It carries eight of the
// paper's Table-2 bugs (#5–#12), including the case-study serial-write crash
// of Figure 6: unregistering (or misconfiguring) the console serial device
// leaves the kernel's cached device pointer dangling, and the next logging
// call — e.g. from socket creation — dies in _serial_poll_tx.
package rtthread

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/os/apiutil"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/rtos"
)

// Name is the canonical OS identifier.
const Name = "rtthread"

// Version matches the paper's evaluated revision.
const Version = "2f55990"

const partTable = `# name, type, offset, size
bootloader, app, 0x0, 0x10000
kernel, app, 0x10000, 0x300000
nvs, data, 0x310000, 0x10000
`

// RT-Thread object class codes (rt_object_class_type).
const (
	classNull = iota
	classThread
	classSemaphore
	classMutex
	classEvent
	classMailBox
	classMsgQueue
	classMemPool
	classDevice
	classTimer
	classCount
)

// rtForever is RT_WAITING_FOREVER as a 32-bit value.
const rtForever = 0xFFFFFFFF

// staticObject is the registry record of an rt_object_init object.
type staticObject struct {
	class uint32
}

// OS is one booted RT-Thread instance.
type OS struct {
	drv     *rtos.Driver
	periphs []*rtos.Periph
	env     *board.Env
	k       *rtos.Kernel
	reg     *apiutil.Registrar

	// Console chain functions, matching Figure 6's files and lines.
	fnKprintf   *rtos.Fn
	fnKputs     *rtos.Fn
	fnDevWrite  *rtos.Fn
	fnSerWrite  *rtos.Fn
	fnPollTx    *rtos.Fn
	fnException *rtos.Fn
	fnListEmpty *rtos.Fn
	fnSalSocket *rtos.Fn
	fnSocket    *rtos.Fn

	console       *rtos.Device // cached console device (can go stale: bug #12)
	serialBroken  bool         // incomplete re-init left the port half-configured
	staticObjects int
}

// Info returns the host-visible build description.
func Info() *osinfo.Info {
	return &osinfo.Info{
		Name:               Name,
		Display:            "RT-Thread",
		Version:            Version,
		PartTableText:      partTable,
		Builder:            Build,
		ExceptionSyms:      []string{"common_exception"},
		Headers:            headers(),
		APINames:           apiOrder(),
		BaseCodeBytes:      2_470_000,
		BytesPerBlock:      64,
		InstrBytesPerBlock: 296,
		BuildID:            0x2F559901,
	}
}

// serialOps is the console UART driver.
type serialOps struct{ o *OS }

func (s serialOps) Open(k *rtos.Kernel, flags uint32) rtos.Errno { return rtos.OK }
func (s serialOps) Close(k *rtos.Kernel) rtos.Errno              { return rtos.OK }
func (s serialOps) Write(k *rtos.Kernel, data []byte) (int, rtos.Errno) {
	k.Env.UART.WriteString(string(data))
	return len(data), rtos.OK
}
func (s serialOps) Read(k *rtos.Kernel, n int) ([]byte, rtos.Errno) { return nil, rtos.ErrEmpty }
func (s serialOps) Control(k *rtos.Kernel, cmd, arg uint64) rtos.Errno {
	return rtos.OK
}

// Build constructs the RT-Thread firmware.
func Build(env *board.Env) (board.Firmware, error) {
	k := rtos.NewKernel(env, "RT-Thread")
	k.InitSched("rt_tick_increase", "rt_schedule", "rt_hw_context_switch", "src/scheduler.c")

	heapBase := env.ScratchBase + agent.ArenaSize
	heapEnd := env.RAM.End() - 4096
	if heapBase+16*1024 > heapEnd {
		return nil, fmt.Errorf("rtthread: RAM too small for heap")
	}
	k.NewHeap(heapBase, int(heapEnd-heapBase), "rt_smem_alloc", "rt_smem_free", "_heap_lock", "src/mem.c")

	o := &OS{env: env, k: k}
	o.fnException = k.Fn("common_exception", "libcpu/exception.c", 40, 2)
	o.fnKprintf = k.Fn("rt_kprintf", "src/kservice.c", 345, 3)
	o.fnKputs = k.Fn("_kputs", "src/kservice.c", 294, 2)
	o.fnDevWrite = k.Fn("rt_device_write", "src/device.c", 390, 3)
	o.fnSerWrite = k.Fn("rt_serial_write", "components/drivers/serial/serial.c", 910, 4)
	o.fnPollTx = k.Fn("_serial_poll_tx", "components/drivers/serial/serial.c", 860, 3)
	o.fnListEmpty = k.Fn("rt_list_isempty", "include/rtservice.h", 110, 2)
	o.fnSalSocket = k.Fn("sal_socket", "components/net/sal/sal_socket.c", 1050, 8)
	o.fnSocket = k.Fn("socket", "components/net/netdev/net_sockets.c", 240, 4)
	k.ExceptionFn = o.fnException
	k.ConsoleWrite = o.consoleWrite

	// Register the console serial port and cache the device pointer, as
	// rt_console_set_device does.
	dev, e := k.Devices.Register("uart0", serialOps{o: o}, rtos.DevFlagRead|rtos.DevFlagWrite|rtos.DevFlagStream)
	if e.Failed() {
		return nil, fmt.Errorf("rtthread: console register: %v", e)
	}
	o.console = dev
	if _, e := k.Devices.Register("uart1", serialOps{o: o}, rtos.DevFlagWrite); e.Failed() {
		return nil, fmt.Errorf("rtthread: uart1 register: %v", e)
	}

	o.reg = &apiutil.Registrar{K: k, File: "src/rtthread_api.c"}
	o.drv = k.NewDriver("dma", "rt_sensor_open", "rt_sensor_control", "rt_sensor_close", "components/drivers/sensor/sensor.c")
	o.periphs = append(o.periphs, k.NewPeriph("gpio", "rt_pin_mode", "rt_pin_read", "components/drivers/pin/pin.c"))
	o.periphs = append(o.periphs, k.NewPeriph("wifi", "rt_wlan_config", "rt_wlan_scan", "components/drivers/wlan/wlan.c"))
	o.buildTable()
	if got := o.reg.Names(); len(got) != len(apiOrder()) {
		return nil, fmt.Errorf("rtthread: API table drift: %d registered, %d declared", len(got), len(apiOrder()))
	}
	for i, n := range o.reg.Names() {
		if n != apiOrder()[i] {
			return nil, fmt.Errorf("rtthread: API order drift at %d: %s != %s", i, n, apiOrder()[i])
		}
	}
	return agent.New(env, o), nil
}

// consoleWrite is the Figure-6 logging chain: rt_kprintf → _kputs →
// rt_device_write → rt_serial_write → _serial_poll_tx. A stale console
// device or a half-configured port faults at the bottom of the chain
// (Table 2 bug #12).
func (o *OS) consoleWrite(s string) {
	o.fnKprintf.Enter()
	defer o.fnKprintf.Exit()
	o.fnKprintf.B(1)
	o.fnKputs.Enter()
	defer o.fnKputs.Exit()
	o.fnKputs.B(1)
	o.fnDevWrite.Enter()
	defer o.fnDevWrite.Exit()
	o.fnDevWrite.B(1)
	o.fnSerWrite.Enter()
	defer o.fnSerWrite.Exit()
	o.fnSerWrite.B(1)
	o.fnPollTx.Enter()
	defer o.fnPollTx.Exit()
	// RT_ASSERT(serial != RT_NULL) passes — the pointer is non-NULL, merely
	// dangling — and the subsequent field access dies.
	if o.console == nil || o.console.Stale {
		o.fnPollTx.B(1)
		o.k.PanicFault(cpu.FaultBus, "_serial_poll_tx: access to unregistered serial device")
	}
	if o.serialBroken {
		o.fnPollTx.B(1)
		o.k.PanicFault(cpu.FaultBus, "_serial_poll_tx: serial ops not configured")
	}
	o.fnPollTx.B(2)
	if o.console.OpenFlag&rtos.DevFlagStream != 0 {
		// Stream mode: '\n' → '\r\n' translation (the open_flag branch the
		// case study's code excerpt shows).
		o.console.Ops.Write(o.k, []byte(s))
	} else {
		o.console.Ops.Write(o.k, []byte(s))
	}
}

// Name implements agent.Target.
func (o *OS) Name() string { return Name }

// Kernel implements agent.Target.
func (o *OS) Kernel() *rtos.Kernel { return o.k }

// APIs implements agent.Target.
func (o *OS) APIs() []agent.API { return o.reg.Table }

func apiOrder() []string {
	return []string{
		"rt_thread_create", "rt_thread_delete", "rt_thread_mdelay",
		"rt_thread_suspend", "rt_thread_resume", "rt_thread_control",
		"rt_object_get_type", "rt_object_init", "rt_object_find",
		"rt_mb_create", "rt_mb_send", "rt_mb_recv", "rt_mb_delete",
		"rt_mq_create", "rt_mq_send", "rt_mq_recv", "rt_mq_delete",
		"rt_sem_create", "rt_sem_take", "rt_sem_release", "rt_sem_delete",
		"rt_mutex_create", "rt_mutex_take", "rt_mutex_release",
		"rt_event_create", "rt_event_send", "rt_event_recv",
		"rt_mp_create", "rt_mp_alloc", "rt_mp_free", "rt_mp_delete",
		"rt_malloc", "rt_free", "rt_realloc", "rt_smem_setname", "rt_memory_info",
		"rt_device_find", "rt_device_open", "rt_device_write_api", "rt_device_close",
		"rt_device_unregister", "rt_serial_ctrl",
		"rt_kprintf_api",
		"syz_create_bind_socket",
		"rt_timer_create", "rt_timer_start", "rt_timer_stop",
		"rt_sensor_open", "rt_sensor_control", "rt_sensor_close",
		"rt_pin_mode", "rt_pin_read", "rt_wlan_config", "rt_wlan_scan",
	}
}

func (o *OS) timeout(v uint64) int { return apiutil.Timeout32(v, rtForever) }

func (o *OS) buildTable() {
	k := o.k
	r := o.reg
	ar := apiutil.Arg

	r.Reg("rt_thread_create", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 8, "tshell")
		prio := int(uint32(ar(a, 1)))
		stack := int(uint32(ar(a, 2)))
		if prio > rtos.PrioMin {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		obj, e := k.Sched.Create(name, prio, stack, int(ar(a, 3)))
		if e.Failed() {
			f.B(3)
			return 0, e
		}
		f.B(4)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_thread_delete", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		k.Sched.SetState(obj.Data.(*rtos.Task), rtos.TaskDead)
		return 0, k.Objects.Delete(obj.ID)
	})

	r.Reg("rt_thread_mdelay", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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
		k.Sleep(int(ms)) // 1ms tick
		return 0, rtos.OK
	})

	r.Reg("rt_thread_suspend", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		t := obj.Data.(*rtos.Task)
		if t.State() == rtos.TaskDead {
			f.B(2)
			return 0, rtos.ErrState
		}
		f.B(3)
		k.Sched.SetState(t, rtos.TaskSuspended)
		return 0, rtos.OK
	})

	r.Reg("rt_thread_resume", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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

	r.Reg("rt_thread_control", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		t := obj.Data.(*rtos.Task)
		switch cmd := uint32(ar(a, 1)); cmd {
		case 0: // GET_PRIO
			f.B(2)
			return uint64(t.Prio()), rtos.OK
		case 1: // SET_PRIO
			prio := int(uint32(ar(a, 2)))
			if prio > rtos.PrioMin {
				f.B(3)
				return 0, rtos.ErrInval
			}
			f.B(4)
			k.Sched.SetPrio(t, prio)
			t.BasePrio = prio
			return 0, rtos.OK
		case 2: // GET_RUNCOUNT
			f.B(5)
			return t.RunCount, rtos.OK
		default:
			f.B(6)
			return 0, rtos.ErrNoSys
		}
	})

	// Bug #5 (Table 2): rt_object_get_type on a deleted object handle — the
	// control block's type field was cleared at delete, and RT_ASSERT fires,
	// hanging the system (log-monitor detectable only).
	r.Reg("rt_object_get_type", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj := k.Objects.Get(uint32(ar(a, 0)))
		if obj == nil {
			f.B(1)
			return 0, rtos.ErrNotFound
		}
		f.B(2)
		if !obj.Alive() {
			f.B(3)
			k.Assert(false, "obj->type != RT_Object_Class_Null")
		}
		f.B(4)
		if so, ok := obj.Data.(staticObject); ok {
			return uint64(so.class), rtos.OK
		}
		return uint64(o.classOf(obj.Type)), rtos.OK
	})

	// Bug #8 (Table 2): rt_object_init with class RT_Object_Class_Null —
	// the init path asserts on the class code instead of returning an error.
	r.Reg("rt_object_init", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 8, "object")
		class := uint32(ar(a, 1))
		if class == classNull {
			f.B(1)
			k.Assert(false, "type != RT_Object_Class_Null")
		}
		f.B(2)
		if class >= classCount {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		o.staticObjects++
		// Statically initialised objects carry only their class code; they
		// are registry entries, not full control blocks, so they stay out of
		// the typed-handle namespace.
		obj := k.Objects.New(rtos.ObjNone, name, staticObject{class: class})
		return uint64(obj.ID), rtos.OK
	})

	// Bug #6 (Table 2): rt_object_find indexes the per-class container list
	// with an unchecked upper bound; a class code past the table walks a
	// wild list head inside rt_list_isempty.
	r.Reg("rt_object_find", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 8, "")
		class := uint32(ar(a, 1))
		if class == classNull {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		o.fnListEmpty.Enter()
		if class >= classCount {
			o.fnListEmpty.B(1)
			k.PanicFault(cpu.FaultBus, fmt.Sprintf(
				"rt_list_isempty: wild container list for class %d", class))
		}
		o.fnListEmpty.Exit()
		f.B(3)
		if name == "" {
			f.B(4)
			return 0, rtos.ErrInval
		}
		for _, dn := range k.Devices.Names() {
			if dn == name {
				f.B(5)
				return uint64(k.Devices.Find(name).Obj.ID), rtos.OK
			}
		}
		f.B(6)
		return 0, rtos.ErrNotFound
	})

	r.Reg("rt_mb_create", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		size := int(uint32(ar(a, 0)))
		obj, e := k.NewQueue("mailbox", 8, size)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_mb_send", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		var cell [8]byte
		v := ar(a, 1)
		for i := range cell {
			cell[i] = byte(v >> (8 * i))
		}
		if e := q.Send(cell[:], 0); e.Failed() {
			f.B(2)
			return 0, e
		}
		f.B(3)
		return 0, rtos.OK
	})

	r.Reg("rt_mb_recv", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		item, e := obj.Data.(*rtos.Queue).Recv(o.timeout(ar(a, 1)))
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

	r.Reg("rt_mb_delete", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Queue).Destroy()
	})

	r.Reg("rt_mq_create", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msgSize := int(uint32(ar(a, 0)))
		maxMsgs := int(uint32(ar(a, 1)))
		obj, e := k.NewQueue("msgqueue", msgSize, maxMsgs)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_mq_send", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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
		if e := q.Send(item, 0); e.Failed() {
			f.B(4)
			return 0, e
		}
		f.B(5)
		return 0, rtos.OK
	})

	r.Reg("rt_mq_recv", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		item, e := obj.Data.(*rtos.Queue).Recv(o.timeout(ar(a, 1)))
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

	r.Reg("rt_mq_delete", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Queue).Destroy()
	})

	r.Reg("rt_sem_create", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewSemaphore("sem", int(uint32(ar(a, 0))), 65535)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_sem_take", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Take(o.timeout(ar(a, 1)))
	})

	r.Reg("rt_sem_release", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Give()
	})

	r.Reg("rt_sem_delete", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Objects.Delete(uint32(ar(a, 0)))
	})

	r.Reg("rt_mutex_create", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewMutex("mutex", true)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_mutex_take", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjMutex)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Mutex).Lock(o.timeout(ar(a, 1)))
	})

	r.Reg("rt_mutex_release", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjMutex)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Mutex).Unlock()
	})

	r.Reg("rt_event_create", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewEvent("event")
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	// Bug #10 (Table 2): rt_event_send scans waiter bits 1..32 — setting
	// bit 31 drives the scan one past the per-bit waiter table.
	r.Reg("rt_event_send", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		set := uint32(ar(a, 1))
		if set == 0 {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		if set&0x8000_0000 != 0 {
			f.B(4)
			k.PanicFault(cpu.FaultBus, "rt_event_send: waiter table overrun (bit 31)")
		}
		f.B(5)
		return 0, obj.Data.(*rtos.Event).Send(set)
	})

	r.Reg("rt_event_recv", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		var opts uint32
		if ar(a, 2)&1 != 0 {
			f.B(2)
			opts |= rtos.EvtAll
		}
		if ar(a, 2)&2 != 0 {
			f.B(3)
			opts |= rtos.EvtClear
		}
		got, e := obj.Data.(*rtos.Event).Recv(uint32(ar(a, 1)), opts, o.timeout(ar(a, 3)))
		if e.Failed() {
			f.B(4)
			return 0, e
		}
		f.B(5)
		return uint64(got), rtos.OK
	})

	r.Reg("rt_mp_create", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 8, "mp")
		count := int(uint32(ar(a, 1)))
		size := int(uint32(ar(a, 2)))
		obj, e := k.NewPool(name, size, count, "rt_mp_alloc_impl", "rt_mp_free_impl", "src/mempool.c")
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	// Bug #7 (Table 2): the blocking path of rt_mp_alloc skips the liveness
	// check the non-blocking path performs; allocating from a deleted pool
	// with a timeout dereferences the freed control block.
	r.Reg("rt_mp_alloc", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj := k.Objects.Get(uint32(ar(a, 0)))
		if obj == nil || obj.Type != rtos.ObjPool {
			f.B(1)
			return 0, rtos.ErrNotFound
		}
		timeout := o.timeout(ar(a, 1))
		if timeout == 0 {
			f.B(2)
			if !obj.Alive() {
				f.B(3)
				return 0, rtos.ErrState
			}
		} else {
			f.B(4)
			if !obj.Alive() {
				f.B(5)
				k.PanicFault(cpu.FaultPanic, "rt_mp_alloc: control block freed during wait")
			}
		}
		p := obj.Data.(*rtos.Pool)
		addr, e := p.Alloc(timeout)
		if e.Failed() {
			f.B(6)
			return 0, e
		}
		f.B(7)
		return addr, rtos.OK
	})

	r.Reg("rt_mp_free", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjPool)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Pool).Free(ar(a, 1))
	})

	r.Reg("rt_mp_delete", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjPool)
		if e.Failed() {
			return 0, e
		}
		f.B(2)
		return 0, k.Objects.Delete(obj.ID)
	})

	r.Reg("rt_malloc", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		p := k.Heap.Alloc(int(uint32(ar(a, 0))))
		if p == 0 {
			f.B(1)
			return 0, rtos.ErrNoMem
		}
		f.B(2)
		return p, rtos.OK
	})

	r.Reg("rt_free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Heap.Free(ar(a, 0))
	})

	// Bug #9 (Table 2): rt_realloc's too-large path releases the heap lock
	// on both the error return and the common epilogue — the unbalanced
	// release is detected inside _heap_lock.
	r.Reg("rt_realloc", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ptr := ar(a, 0)
		newSize := int(uint32(ar(a, 1)))
		payload := k.Heap.BlockPayload(ptr)
		if payload < 0 {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		if newSize == 0 {
			f.B(3)
			return 0, k.Heap.Free(ptr)
		}
		if newSize > 0x10000 {
			f.B(4)
			k.Heap.PanicInLock(cpu.FaultPanic, "_heap_lock: unbalanced lock release in rt_realloc")
		}
		if newSize <= payload {
			f.B(5)
			return ptr, rtos.OK
		}
		f.B(6)
		np := k.Heap.Alloc(newSize)
		if np == 0 {
			f.B(7)
			return 0, rtos.ErrNoMem
		}
		data := k.ReadRAM(ptr, payload)
		k.WriteRAM(np, data)
		k.Heap.Free(ptr)
		return np, rtos.OK
	})

	// Bug #11 (Table 2): rt_smem_setname copies the caller's name with a
	// fixed 16-byte loop; on a block smaller than that the copy runs into
	// the next block's header.
	r.Reg("rt_smem_setname", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ptr := ar(a, 0)
		name := apiutil.CString(k, ar(a, 1), 32, "")
		payload := k.Heap.BlockPayload(ptr)
		if payload < 0 {
			f.B(1)
			return 0, rtos.ErrInval
		}
		if name == "" {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		if len(name) > payload {
			f.B(4)
			k.Heap.CorruptAfter(ptr, len(name)-payload, 0x00)
			k.PanicFault(cpu.FaultUsage, "rt_smem_setname: name copy past block end")
		}
		f.B(5)
		var tag uint32
		for i := 0; i < len(name) && i < 4; i++ {
			tag |= uint32(name[i]) << (8 * i)
		}
		k.Heap.SetNameTag(ptr, tag)
		return 0, rtos.OK
	})

	r.Reg("rt_memory_info", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		_, _, free := k.Heap.Stats()
		return uint64(free), rtos.OK
	})

	r.Reg("rt_device_find", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 16, "")
		dev := k.Devices.Find(name)
		if dev == nil {
			f.B(1)
			return 0, rtos.ErrNotFound
		}
		f.B(2)
		return uint64(dev.Obj.ID), rtos.OK
	})

	r.Reg("rt_device_open", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		dev, e := o.deviceByID(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, k.Devices.Open(dev, uint32(ar(a, 1)))
	})

	r.Reg("rt_device_write_api", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		dev, e := o.deviceByID(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		data := apiutil.Bytes(k, ar(a, 1), int(uint32(ar(a, 2))), 512)
		if len(data) == 0 {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		n, e2 := dev.Ops.Write(k, data)
		return uint64(n), e2
	})

	r.Reg("rt_device_close", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		dev, e := o.deviceByID(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, k.Devices.Close(dev)
	})

	// rt_device_unregister is half of bug #12's setup: pulling the console
	// device out from under the kernel's cached pointer.
	r.Reg("rt_device_unregister", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 16, "")
		if name == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		e := k.Devices.Unregister(name)
		if e.Failed() {
			f.B(3)
			return 0, e
		}
		f.B(4)
		return 0, rtos.OK
	})

	// rt_serial_ctrl is the other half: a reconfigure with a non-standard
	// baud rate leaves the port half-initialised (ops table cleared but no
	// error reported) — the "incomplete init" variant of bug #12.
	r.Reg("rt_serial_ctrl", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		cmd := uint32(ar(a, 0))
		val := uint32(ar(a, 1))
		switch cmd {
		case 1: // FLUSH
			f.B(1)
			return 0, rtos.OK
		case 2: // RECONFIG
			f.B(2)
			switch val {
			case 9600, 19200, 38400, 57600, 115200:
				f.B(3)
				o.serialBroken = false
				return 0, rtos.OK
			default:
				f.B(4)
				o.serialBroken = true // silently half-configured
				return 0, rtos.OK
			}
		case 3: // LOOPBACK toggle
			f.B(5)
			return 0, rtos.OK
		default:
			f.B(6)
			return 0, rtos.ErrNoSys
		}
	})

	r.Reg("rt_kprintf_api", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msg := apiutil.CString(k, ar(a, 0), 128, "")
		if msg == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		k.Kprintf("%s\n", msg)
		return uint64(len(msg)), rtos.OK
	})

	r.Reg("syz_create_bind_socket", 6, o.syzCreateBindSocket)

	r.Reg("rt_timer_create", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewTimer("timer", ar(a, 0), ar(a, 1)&1 == 0, int(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("rt_timer_start", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Timer).Start()
	})

	r.Reg("rt_timer_stop", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Timer).Stop()
	})

	r.Reg("rt_sensor_open", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		h, e := o.drv.Open()
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("rt_sensor_control", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ret, e := o.drv.Ctl(uint32(ar(a, 0)), uint32(ar(a, 1)), uint32(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return ret, e
		}
		f.B(2)
		return ret, rtos.OK
	})

	r.Reg("rt_sensor_close", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.drv.Close(uint32(ar(a, 0)))
	})

	r.Reg("rt_pin_mode", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[0].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("rt_pin_read", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[0].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("rt_wlan_config", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[1].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("rt_wlan_scan", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[1].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})
}

// syzCreateBindSocket is the pseudo-syscall of Figure 6: create a socket and
// bind it. Error paths and the success path both log over the console —
// which is what detonates bug #12 when the serial device is stale.
func (o *OS) syzCreateBindSocket(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
	k := o.k
	domain := uint32(apiutil.Arg(a, 0))
	typ := uint32(apiutil.Arg(a, 1))
	proto := uint32(apiutil.Arg(a, 2))
	addrPtr := apiutil.Arg(a, 3)

	o.fnSocket.Enter()
	defer o.fnSocket.Exit()
	o.fnSocket.B(1)
	o.fnSalSocket.Enter()
	defer o.fnSalSocket.Exit()

	if !o.env.Spec.HasPeripheral("socket") {
		o.fnSalSocket.B(1)
		return 0, rtos.ErrNoDev
	}
	o.fnSalSocket.B(2)
	if domain != 2 { // AF_INET
		o.fnSalSocket.B(3)
		k.Kprintf("sal_socket: unsupported address family %#x\n", domain)
		return 0, rtos.ErrInval
	}
	if typ != 1 && typ != 2 { // SOCK_STREAM / SOCK_DGRAM
		o.fnSalSocket.B(4)
		return 0, rtos.ErrInval
	}
	if proto > 17 {
		o.fnSalSocket.B(5)
		return 0, rtos.ErrInval
	}
	o.fnSalSocket.B(6)
	sock := k.Objects.New(rtos.ObjSocket, "socket", typ)
	k.Kprintf("sal_socket: socket %d created (type %d)\n", sock.ID, typ)

	if addrPtr != 0 {
		o.fnSalSocket.B(7)
		raw := k.ReadRAM(addrPtr, 4)
		port := uint16(raw[0]) | uint16(raw[1])<<8
		if port == 0 {
			f.B(1)
			return uint64(sock.ID), rtos.ErrInval
		}
		f.B(2)
		k.Kprintf("sal_socket: socket %d bound to port %d\n", sock.ID, port)
	}
	f.B(3)
	return uint64(sock.ID), rtos.OK
}

func (o *OS) deviceByID(id uint32) (*rtos.Device, rtos.Errno) {
	obj, e := o.k.Objects.GetTyped(id, rtos.ObjDevice)
	if e.Failed() {
		return nil, e
	}
	return obj.Data.(*rtos.Device), rtos.OK
}

func (o *OS) classOf(t rtos.ObjType) uint32 {
	switch t {
	case rtos.ObjTask:
		return classThread
	case rtos.ObjSem:
		return classSemaphore
	case rtos.ObjMutex:
		return classMutex
	case rtos.ObjEvent:
		return classEvent
	case rtos.ObjQueue:
		return classMsgQueue
	case rtos.ObjPool:
		return classMemPool
	case rtos.ObjDevice:
		return classDevice
	case rtos.ObjTimer:
		return classTimer
	default:
		return classNull
	}
}

func (o *OS) objTypeOf(class uint32) rtos.ObjType {
	switch class {
	case classThread:
		return rtos.ObjTask
	case classSemaphore:
		return rtos.ObjSem
	case classMutex:
		return rtos.ObjMutex
	case classEvent:
		return rtos.ObjEvent
	case classMailBox, classMsgQueue:
		return rtos.ObjQueue
	case classMemPool:
		return rtos.ObjPool
	case classDevice:
		return rtos.ObjDevice
	case classTimer:
		return rtos.ObjTimer
	default:
		return rtos.ObjNone
	}
}
