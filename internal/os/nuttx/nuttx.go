// Package nuttx is the NuttX personality: a POSIX-flavoured surface
// (setenv, mq_*, sem_*, timer_*, clock_*) over the shared framework. It
// carries Table-2 bugs #14 (setenv with '=' in the name corrupts the environ
// block), #15 (gettimeofday's timezone fixup on a null timeval), #16
// (nxmq_timedsend skips priority validation on the blocking path), #17
// (nxsem_trywait asserts on a destroyed semaphore), #18 (timer_create's
// clock function table hole) and #19 (clock_getres null-res path).
package nuttx

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/os/apiutil"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/rtos"
)

// Name is the canonical OS identifier.
const Name = "nuttx"

// Version matches the paper's evaluated revision.
const Version = "fc99353"

const partTable = `# name, type, offset, size
bootloader, app, 0x0, 0x10000
kernel, app, 0x10000, 0x400000
nvs, data, 0x410000, 0x20000
`

// Clock IDs (a subset of NuttX's).
const (
	clockRealtime  = 0
	clockMonotonic = 1
	clockProcCPU   = 2
	clockThreadCPU = 3
	clockCoarse    = 4 // accepted by the range check, missing from the table
)

// mqPrioMax is MQ_PRIO_MAX - 1.
const mqPrioMax = 31

// OS is one booted NuttX instance.
type OS struct {
	periphs []*rtos.Periph
	drv     *rtos.Driver
	env     *board.Env
	k       *rtos.Kernel
	reg     *apiutil.Registrar

	fnAssert  *rtos.Fn
	fnSyslog  *rtos.Fn
	fnEnvScan *rtos.Fn
	fnGTOD    *rtos.Fn
	fnMqTSend *rtos.Fn
	fnTryWait *rtos.Fn
	fnTCreate *rtos.Fn
	fnGetres  *rtos.Fn

	env0     map[string]string
	envBytes int
}

// Info returns the host-visible build description.
func Info() *osinfo.Info {
	return &osinfo.Info{
		Name:               Name,
		Display:            "NuttX",
		Version:            Version,
		PartTableText:      partTable,
		Builder:            Build,
		ExceptionSyms:      []string{"up_assert"},
		Headers:            headers(),
		APINames:           apiOrder(),
		BaseCodeBytes:      3_290_000,
		BytesPerBlock:      64,
		InstrBytesPerBlock: 281,
		BuildID:            0xFC993530,
	}
}

// Build constructs the NuttX firmware.
func Build(env *board.Env) (board.Firmware, error) {
	k := rtos.NewKernel(env, "NuttX")
	k.InitSched("nxsched_process_timer", "nxsched_select_next", "up_switch_context", "sched/sched.c")

	heapBase := env.ScratchBase + agent.ArenaSize
	heapEnd := env.RAM.End() - 4096
	if heapBase+16*1024 > heapEnd {
		return nil, fmt.Errorf("nuttx: RAM too small for heap")
	}
	k.NewHeap(heapBase, int(heapEnd-heapBase), "mm_malloc", "mm_free", "mm_lock", "mm/mm_heap.c")

	o := &OS{env: env, k: k, env0: make(map[string]string)}
	o.fnAssert = k.Fn("up_assert", "arch/arm/src/common/up_assert.c", 90, 2)
	o.fnSyslog = k.Fn("syslog", "libs/libc/syslog/lib_syslog.c", 40, 2)
	o.fnEnvScan = k.Fn("env_findvar", "sched/environ/env_findvar.c", 30, 4)
	o.fnGTOD = k.Fn("gettimeofday", "libs/libc/time/lib_gettimeofday.c", 50, 6)
	o.fnMqTSend = k.Fn("nxmq_timedsend", "sched/mqueue/mq_timedsend.c", 120, 8)
	o.fnTryWait = k.Fn("nxsem_trywait", "sched/semaphore/sem_trywait.c", 60, 6)
	o.fnTCreate = k.Fn("timer_create", "sched/timer/timer_create.c", 80, 8)
	o.fnGetres = k.Fn("clock_getres", "sched/clock/clock_getres.c", 40, 7)
	k.ExceptionFn = o.fnAssert
	k.ConsoleWrite = o.consoleWrite

	o.reg = &apiutil.Registrar{K: k, File: "syscall/nuttx_api.c"}
	o.drv = k.NewDriver("dma", "nx_dev_open", "nx_dev_ioctl", "nx_dev_close", "drivers/char/dev_dma.c")
	o.periphs = append(o.periphs, k.NewPeriph("gpio", "gpio_config", "gpio_read", "drivers/ioexpander/gpio.c"))
	o.periphs = append(o.periphs, k.NewPeriph("adc", "adc_setup", "adc_sample", "drivers/analog/adc.c"))
	o.periphs = append(o.periphs, k.NewPeriph("can", "can_ioctl_cfg", "can_receive", "drivers/can/can.c"))
	o.buildTable()
	names := o.reg.Names()
	want := apiOrder()
	if len(names) != len(want) {
		return nil, fmt.Errorf("nuttx: API table drift: %d registered, %d declared", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			return nil, fmt.Errorf("nuttx: API order drift at %d: %s != %s", i, names[i], want[i])
		}
	}
	return agent.New(env, o), nil
}

func (o *OS) consoleWrite(s string) {
	o.fnSyslog.Enter()
	o.fnSyslog.B(1)
	o.env.UART.WriteString(s)
	o.fnSyslog.Exit()
}

// Name implements agent.Target.
func (o *OS) Name() string { return Name }

// Kernel implements agent.Target.
func (o *OS) Kernel() *rtos.Kernel { return o.k }

// APIs implements agent.Target.
func (o *OS) APIs() []agent.API { return o.reg.Table }

func apiOrder() []string {
	return []string{
		"task_create", "task_delete", "usleep",
		"setenv", "getenv", "unsetenv",
		"mq_open", "mq_send", "nxmq_timedsend", "mq_receive", "mq_close",
		"sem_init", "sem_timedwait", "nxsem_trywait", "sem_post", "sem_destroy",
		"timer_create", "timer_settime", "timer_delete",
		"gettimeofday", "clock_gettime", "clock_getres",
		"malloc", "free", "syslog_api",
		"nx_dev_open", "nx_dev_ioctl", "nx_dev_close",
		"gpio_config", "gpio_read", "adc_setup", "adc_sample",
		"can_ioctl_cfg", "can_receive",
	}
}

func (o *OS) buildTable() {
	k := o.k
	r := o.reg
	ar := apiutil.Arg

	r.Reg("task_create", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 16, "init")
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

	r.Reg("task_delete", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		k.Sched.SetState(obj.Data.(*rtos.Task), rtos.TaskDead)
		return 0, k.Objects.Delete(obj.ID)
	})

	r.Reg("usleep", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		us := uint32(ar(a, 0))
		if us == 0 {
			f.B(1)
			return 0, rtos.OK
		}
		ticks := int(us / 1000)
		if ticks > 5000 {
			f.B(2)
			ticks = 5000
		}
		f.B(3)
		k.Sleep(ticks)
		return 0, rtos.OK
	})

	// Bug #14 (Table 2): setenv accepts a name containing '=' and rebuilds
	// the environ block around the bogus separator, corrupting it.
	r.Reg("setenv", 9, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 32, "")
		value := apiutil.CString(k, ar(a, 1), 64, "")
		overwrite := uint32(ar(a, 2)) != 0
		if name == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		o.fnEnvScan.Enter()
		_, exists := o.env0[name]
		o.fnEnvScan.B(1)
		o.fnEnvScan.Exit()
		if strings.ContainsRune(name, '=') {
			f.B(3)
			if len(o.env0) > 0 {
				f.B(4)
				k.PanicFault(cpu.FaultPanic, fmt.Sprintf(
					"setenv: environ block corrupted by name %q", name))
			}
			// With an empty environment the bogus entry merely lands first.
		}
		if exists && !overwrite {
			f.B(5)
			return 0, rtos.OK
		}
		if o.envBytes+len(name)+len(value) > 2048 {
			f.B(6)
			return 0, rtos.ErrNoMem
		}
		f.B(7)
		o.env0[name] = value
		o.envBytes += len(name) + len(value)
		return 0, rtos.OK
	})

	r.Reg("getenv", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 32, "")
		o.fnEnvScan.Enter()
		v, ok := o.env0[name]
		o.fnEnvScan.B(2)
		o.fnEnvScan.Exit()
		if !ok {
			f.B(1)
			return 0, rtos.ErrNotFound
		}
		f.B(2)
		return uint64(len(v)), rtos.OK
	})

	r.Reg("unsetenv", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 32, "")
		if _, ok := o.env0[name]; !ok {
			f.B(1)
			return 0, rtos.OK // POSIX: success even when absent
		}
		f.B(2)
		o.envBytes -= len(name) + len(o.env0[name])
		delete(o.env0, name)
		return 0, rtos.OK
	})

	r.Reg("mq_open", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 16, "/mq")
		maxMsg := int(uint32(ar(a, 1)))
		msgSize := int(uint32(ar(a, 2)))
		if !strings.HasPrefix(name, "/") {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		obj, e := k.NewQueue(name, msgSize, maxMsg)
		if e.Failed() {
			f.B(3)
			return 0, e
		}
		f.B(4)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("mq_send", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		prio := uint32(ar(a, 2))
		if prio > mqPrioMax {
			f.B(2)
			return 0, rtos.ErrInval
		}
		ptr := ar(a, 1)
		if ptr == 0 {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		item := k.ReadRAM(ptr, q.ItemSize)
		if e := q.Send(item, 0); e.Failed() {
			f.B(5)
			return 0, e
		}
		f.B(6)
		return 0, rtos.OK
	})

	// Bug #16 (Table 2): the blocking path validates the message but not the
	// priority; a priority past MQ_PRIO_MAX indexes the per-priority list
	// array out of bounds.
	r.Reg("nxmq_timedsend", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		prio := uint32(ar(a, 2))
		timeout := int(uint32(ar(a, 3)))
		o.fnMqTSend.Enter()
		defer o.fnMqTSend.Exit()
		if timeout == 0 {
			o.fnMqTSend.B(1)
			if prio > mqPrioMax {
				o.fnMqTSend.B(2)
				return 0, rtos.ErrInval
			}
		} else {
			o.fnMqTSend.B(3)
			if prio > mqPrioMax {
				o.fnMqTSend.B(4)
				k.PanicFault(cpu.FaultBus, fmt.Sprintf(
					"nxmq_timedsend: priority list overrun (prio=%d)", prio))
			}
		}
		ptr := ar(a, 1)
		if ptr == 0 {
			o.fnMqTSend.B(5)
			return 0, rtos.ErrInval
		}
		o.fnMqTSend.B(6)
		item := k.ReadRAM(ptr, q.ItemSize)
		if e := q.Send(item, timeout); e.Failed() {
			o.fnMqTSend.B(7)
			return 0, e
		}
		return 0, rtos.OK
	})

	r.Reg("mq_receive", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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

	r.Reg("mq_close", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Queue).Destroy()
	})

	r.Reg("sem_init", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewSemaphore("nxsem", int(uint32(ar(a, 0))), 32767)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("sem_timedwait", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Take(int(uint32(ar(a, 1))))
	})

	// Bug #17 (Table 2): trywait on a destroyed semaphore trips the
	// DEBUGASSERT on the freed control block's count — a hang the log
	// monitor attributes.
	r.Reg("nxsem_trywait", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj := k.Objects.Get(uint32(ar(a, 0)))
		if obj == nil || obj.Type != rtos.ObjSem {
			f.B(1)
			return 0, rtos.ErrInval
		}
		o.fnTryWait.Enter()
		defer o.fnTryWait.Exit()
		if !obj.Alive() {
			o.fnTryWait.B(1)
			k.Assert(false, "sem->semcount >= SEM_VALUE_IRQ")
		}
		o.fnTryWait.B(2)
		s := obj.Data.(*rtos.Semaphore)
		if s.Count <= 0 {
			o.fnTryWait.B(3)
			return 0, rtos.ErrBusy
		}
		o.fnTryWait.B(4)
		s.Count--
		return 0, rtos.OK
	})

	r.Reg("sem_post", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Give()
	})

	r.Reg("sem_destroy", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Objects.Delete(uint32(ar(a, 0)))
	})

	// Bug #18 (Table 2): the clock-function table has entries for REALTIME
	// and MONOTONIC; the range check admits ids up to 7, and id 4 falls into
	// the table hole.
	r.Reg("timer_create", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		clockID := uint32(ar(a, 0))
		o.fnTCreate.Enter()
		defer o.fnTCreate.Exit()
		if clockID > 7 {
			o.fnTCreate.B(1)
			return 0, rtos.ErrInval
		}
		switch clockID {
		case clockRealtime, clockMonotonic:
			o.fnTCreate.B(2)
		case clockProcCPU, clockThreadCPU, 5, 6, 7:
			o.fnTCreate.B(3)
			return 0, rtos.ErrNoSys
		case clockCoarse:
			o.fnTCreate.B(4)
			k.PanicFault(cpu.FaultPanic, "timer_create: null clock function table entry (id=4)")
		}
		obj, e := k.NewTimer("ptimer", 100, true, int(ar(a, 1)))
		if e.Failed() {
			o.fnTCreate.B(5)
			return 0, e
		}
		o.fnTCreate.B(6)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("timer_settime", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		t := obj.Data.(*rtos.Timer)
		period := ar(a, 1)
		if period == 0 {
			f.B(2)
			return 0, t.Stop()
		}
		if period > rtos.TimerPeriodMax {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		t.Period = period
		if !t.Armed() {
			f.B(5)
			return 0, t.Start()
		}
		return 0, rtos.OK
	})

	r.Reg("timer_delete", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			return 0, e
		}
		f.B(2)
		obj.Data.(*rtos.Timer).Stop() // ErrState only says it was not armed
		return 0, k.Objects.Delete(obj.ID)
	})

	// Bug #15 (Table 2): the legacy timezone fixup dereferences the timeval
	// before the null check when a timezone pointer is supplied.
	r.Reg("gettimeofday", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		tvPtr := ar(a, 0)
		tzPtr := ar(a, 1)
		o.fnGTOD.Enter()
		defer o.fnGTOD.Exit()
		if tzPtr != 0 {
			o.fnGTOD.B(1)
			if tvPtr == 0 {
				o.fnGTOD.B(2)
				k.PanicFault(cpu.FaultBus, "gettimeofday: timezone fixup on null timeval")
			}
		}
		if tvPtr == 0 {
			o.fnGTOD.B(3)
			return 0, rtos.ErrInval
		}
		o.fnGTOD.B(4)
		var buf [16]byte
		now := k.Env.Clock.Now()
		binary.LittleEndian.PutUint64(buf[0:], uint64(now/1e9))
		binary.LittleEndian.PutUint64(buf[8:], uint64(now%1e9/1e3))
		k.WriteRAM(tvPtr, buf[:])
		return 0, rtos.OK
	})

	r.Reg("clock_gettime", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		clockID := uint32(ar(a, 0))
		if clockID > clockThreadCPU {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		now := uint64(k.Env.Clock.Now())
		if clockID == clockMonotonic {
			f.B(3)
			return now, rtos.OK
		}
		f.B(4)
		return now + 1_700_000_000_000_000_000, rtos.OK
	})

	// Bug #19 (Table 2): the PROCESS_CPUTIME branch writes the resolution
	// through the caller's pointer before the null check.
	r.Reg("clock_getres", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		clockID := uint32(ar(a, 0))
		resPtr := ar(a, 1)
		o.fnGetres.Enter()
		defer o.fnGetres.Exit()
		if clockID > 7 {
			o.fnGetres.B(1)
			return 0, rtos.ErrInval
		}
		if clockID == clockProcCPU {
			o.fnGetres.B(2)
			if resPtr == 0 {
				o.fnGetres.B(3)
				k.PanicFault(cpu.FaultBus, "clock_getres: resolution store through null pointer")
			}
		}
		if resPtr == 0 {
			o.fnGetres.B(4)
			return 0, rtos.ErrInval
		}
		o.fnGetres.B(5)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], 1_000_000) // 1ms tick
		k.WriteRAM(resPtr, buf[:])
		return 0, rtos.OK
	})

	r.Reg("malloc", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		p := k.Heap.Alloc(int(uint32(ar(a, 0))))
		if p == 0 {
			f.B(1)
			return 0, rtos.ErrNoMem
		}
		f.B(2)
		return p, rtos.OK
	})

	r.Reg("free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Heap.Free(ar(a, 0))
	})

	r.Reg("syslog_api", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msg := apiutil.CString(k, ar(a, 0), 128, "")
		if msg == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		k.Kprintf("%s\n", msg)
		return uint64(len(msg)), rtos.OK
	})

	r.Reg("nx_dev_open", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		h, e := o.drv.Open()
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("nx_dev_ioctl", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ret, e := o.drv.Ctl(uint32(ar(a, 0)), uint32(ar(a, 1)), uint32(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return ret, e
		}
		f.B(2)
		return ret, rtos.OK
	})

	r.Reg("nx_dev_close", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.drv.Close(uint32(ar(a, 0)))
	})

	r.Reg("gpio_config", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[0].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("gpio_read", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[0].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("adc_setup", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[1].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("adc_sample", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[1].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("can_ioctl_cfg", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[2].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("can_receive", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[2].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})
}
