// Package zephyr is the Zephyr personality: k_thread/k_msgq/k_sem/k_heap
// APIs over the shared framework, the sys_heap stress/validate surface, and
// the JSON library built with the encode defect. It carries Table-2 bugs
// #1 (sys_heap_stress), #2 (z_impl_k_msgq_get after purge), #3
// (json_obj_encode) and #4 (k_heap_init with a sub-header size).
package zephyr

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/app/jsonlib"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/os/apiutil"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/rtos"
)

// Name is the canonical OS identifier.
const Name = "zephyr"

// Version matches the paper's evaluated revision.
const Version = "143b14b"

const partTable = `# name, type, offset, size
bootloader, app, 0x0, 0x10000
kernel, app, 0x10000, 0x100000
storage, data, 0x110000, 0x10000
`

// kForever is K_FOREVER as a 32-bit timeout.
const kForever = 0xFFFFFFFF

// kheap is a secondary k_heap arena carved from the system heap.
type kheap struct {
	base uint64
	size int
	used int
}

// OS is one booted Zephyr instance.
type OS struct {
	periphs []*rtos.Periph
	drv     *rtos.Driver
	env     *board.Env
	k       *rtos.Kernel
	reg     *apiutil.Registrar
	json    *jsonlib.Lib

	fnFatal   *rtos.Fn
	fnPrintk  *rtos.Fn
	fnStress  *rtos.Fn
	fnMsgqGet *rtos.Fn
	fnHeapIn  *rtos.Fn

	purged map[uint32]bool // msgq handles purged while empty (bug #2 state)
}

// Info returns the host-visible build description.
func Info() *osinfo.Info {
	return &osinfo.Info{
		Name:               Name,
		Display:            "Zephyr",
		Version:            Version,
		PartTableText:      partTable,
		Builder:            Build,
		ExceptionSyms:      []string{"z_fatal_error"},
		Headers:            headers(),
		APINames:           apiOrder(),
		BaseCodeBytes:      768_000,
		BytesPerBlock:      48,
		InstrBytesPerBlock: 113,
		BuildID:            0x143B14B7,
		Dictionary: []string{
			"{\"sensor\":\"temp\",\"value\":21.5}",
			"[true,false,null]",
			"{\"a\":", "[1,2", "\"key\"", ":null}", ",true]", "{\"k\":{",
			"}}", "]]", "2.5e3", "\\u0041",
		},
	}
}

// Build constructs the Zephyr firmware.
func Build(env *board.Env) (board.Firmware, error) {
	k := rtos.NewKernel(env, "Zephyr")
	k.InitSched("z_clock_announce", "z_priq_rb_best", "z_swap_next_thread", "kernel/sched.c")

	heapBase := env.ScratchBase + agent.ArenaSize
	heapEnd := env.RAM.End() - 4096
	if heapBase+16*1024 > heapEnd {
		return nil, fmt.Errorf("zephyr: RAM too small for heap")
	}
	k.NewHeap(heapBase, int(heapEnd-heapBase), "sys_heap_alloc", "sys_heap_free", "z_heap_lock", "lib/heap/heap.c")

	o := &OS{env: env, k: k, purged: make(map[uint32]bool)}
	o.fnFatal = k.Fn("z_fatal_error", "kernel/fatal.c", 60, 2)
	o.fnPrintk = k.Fn("printk", "lib/os/printk.c", 120, 2)
	o.fnStress = k.Fn("sys_heap_stress", "lib/heap/heap_stress.c", 30, 10)
	o.fnMsgqGet = k.Fn("z_impl_k_msgq_get", "kernel/msg_q.c", 170, 8)
	o.fnHeapIn = k.Fn("k_heap_init", "kernel/kheap.c", 25, 7)
	k.ExceptionFn = o.fnFatal
	k.ConsoleWrite = o.consoleWrite

	o.json = jsonlib.New(k, jsonlib.WithEncodeBug())

	o.reg = &apiutil.Registrar{K: k, File: "kernel/zephyr_api.c"}
	o.drv = k.NewDriver("dma", "drv_spi_open", "drv_spi_control", "drv_spi_release", "drivers/spi/spi_ll.c")
	o.periphs = append(o.periphs, k.NewPeriph("gpio", "gpio_pin_configure", "gpio_pin_get", "drivers/gpio/gpio_stm32.c"))
	o.periphs = append(o.periphs, k.NewPeriph("adc", "adc_channel_setup", "adc_read", "drivers/adc/adc_stm32.c"))
	o.periphs = append(o.periphs, k.NewPeriph("can", "can_set_mode", "can_recv", "drivers/can/can_stm32.c"))
	o.buildTable()
	names := o.reg.Names()
	want := apiOrder()
	if len(names) != len(want) {
		return nil, fmt.Errorf("zephyr: API table drift: %d registered, %d declared", len(names), len(want))
	}
	for i := range names {
		if names[i] != want[i] {
			return nil, fmt.Errorf("zephyr: API order drift at %d: %s != %s", i, names[i], want[i])
		}
	}
	return agent.New(env, o), nil
}

func (o *OS) consoleWrite(s string) {
	o.fnPrintk.Enter()
	o.fnPrintk.B(1)
	o.env.UART.WriteString(s)
	o.fnPrintk.Exit()
}

// Name implements agent.Target.
func (o *OS) Name() string { return Name }

// Kernel implements agent.Target.
func (o *OS) Kernel() *rtos.Kernel { return o.k }

// APIs implements agent.Target.
func (o *OS) APIs() []agent.API { return o.reg.Table }

func apiOrder() []string {
	return []string{
		"k_thread_create", "k_thread_abort", "k_sleep", "k_thread_priority_set",
		"k_msgq_alloc_init", "k_msgq_put", "k_msgq_get", "k_msgq_purge", "k_msgq_cleanup",
		"k_sem_init", "k_sem_take", "k_sem_give",
		"k_mutex_init", "k_mutex_lock", "k_mutex_unlock",
		"k_event_init", "k_event_post", "k_event_wait",
		"k_timer_init", "k_timer_start", "k_timer_stop",
		"k_malloc", "k_free",
		"k_heap_init", "k_heap_alloc",
		"sys_heap_stress", "sys_heap_validate",
		"json_obj_parse", "json_obj_encode", "json_obj_free",
		"printk_api",
		"drv_spi_open", "drv_spi_control", "drv_spi_release",
		"gpio_pin_configure", "gpio_pin_get", "adc_channel_setup", "adc_read",
		"can_set_mode", "can_recv",
	}
}

func (o *OS) timeout(v uint64) int { return apiutil.Timeout32(v, kForever) }

func (o *OS) buildTable() {
	k := o.k
	r := o.reg
	ar := apiutil.Arg

	r.Reg("k_thread_create", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, ar(a, 0), 12, "zthread")
		prio := int(int32(uint32(ar(a, 1))))
		stack := int(uint32(ar(a, 2)))
		// Zephyr priorities: cooperative are negative, preemptive positive;
		// map [-16, 15] onto the framework's [0, 31].
		if prio < -16 || prio > 15 {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		obj, e := k.Sched.Create(name, prio+16, stack, int(ar(a, 3)))
		if e.Failed() {
			f.B(3)
			return 0, e
		}
		f.B(4)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_thread_abort", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		k.Sched.SetState(obj.Data.(*rtos.Task), rtos.TaskDead)
		return 0, k.Objects.Delete(obj.ID)
	})

	r.Reg("k_sleep", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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

	r.Reg("k_thread_priority_set", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		prio := int(int32(uint32(ar(a, 1))))
		if prio < -16 || prio > 15 {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		t := obj.Data.(*rtos.Task)
		k.Sched.SetPrio(t, prio+16)
		t.BasePrio = prio + 16
		return 0, rtos.OK
	})

	r.Reg("k_msgq_alloc_init", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msgSize := int(uint32(ar(a, 0)))
		maxMsgs := int(uint32(ar(a, 1)))
		obj, e := k.NewQueue("msgq", msgSize, maxMsgs)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_msgq_put", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
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
		if e := q.Send(item, o.timeout(ar(a, 2))); e.Failed() {
			f.B(4)
			return 0, e
		}
		delete(o.purged, obj.ID) // a successful put re-initialises the wait queue
		f.B(5)
		return 0, rtos.OK
	})

	// Bug #2 (Table 2): k_msgq_purge on an already-empty queue leaves the
	// wait-queue header pointing at freed stack frames; the next blocking
	// get walks it in z_impl_k_msgq_get.
	r.Reg("k_msgq_get", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		timeout := o.timeout(ar(a, 1))
		o.fnMsgqGet.Enter()
		defer o.fnMsgqGet.Exit()
		if q.Count() == 0 && timeout != 0 && o.purged[obj.ID] {
			o.fnMsgqGet.B(1)
			k.PanicFault(cpu.FaultBus, "z_impl_k_msgq_get: wait queue corrupted by purge")
		}
		o.fnMsgqGet.B(2)
		item, e := q.Recv(timeout)
		if e.Failed() {
			o.fnMsgqGet.B(3)
			return 0, e
		}
		o.fnMsgqGet.B(4)
		var v uint64
		for i := 0; i < len(item) && i < 8; i++ {
			v |= uint64(item[i]) << (8 * i)
		}
		return v, rtos.OK
	})

	r.Reg("k_msgq_purge", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		if q.Count() == 0 {
			f.B(2)
			o.purged[obj.ID] = true // BUG state: purge of an empty queue
		} else {
			f.B(3)
			for q.Count() > 0 {
				q.Recv(0)
			}
		}
		f.B(4)
		return 0, rtos.OK
	})

	r.Reg("k_msgq_cleanup", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		delete(o.purged, obj.ID)
		return 0, obj.Data.(*rtos.Queue).Destroy()
	})

	r.Reg("k_sem_init", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewSemaphore("ksem", int(uint32(ar(a, 0))), int(uint32(ar(a, 1))))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_sem_take", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Take(o.timeout(ar(a, 1)))
	})

	r.Reg("k_sem_give", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjSem)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Semaphore).Give()
	})

	r.Reg("k_mutex_init", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewMutex("kmutex", false)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_mutex_lock", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjMutex)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Mutex).Lock(o.timeout(ar(a, 1)))
	})

	r.Reg("k_mutex_unlock", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjMutex)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Mutex).Unlock()
	})

	r.Reg("k_event_init", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewEvent("kevent")
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_event_post", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Event).Send(uint32(ar(a, 1)))
	})

	r.Reg("k_event_wait", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		var opts uint32
		if ar(a, 2)&1 != 0 {
			f.B(2)
			opts |= rtos.EvtClear
		}
		got, e := obj.Data.(*rtos.Event).Recv(uint32(ar(a, 1)), opts, o.timeout(ar(a, 3)))
		if e.Failed() {
			f.B(3)
			return 0, e
		}
		f.B(4)
		return uint64(got), rtos.OK
	})

	r.Reg("k_timer_init", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewTimer("ktimer", ar(a, 0), ar(a, 1)&1 != 0, int(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_timer_start", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Timer).Start()
	})

	r.Reg("k_timer_stop", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Timer).Stop()
	})

	r.Reg("k_malloc", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		p := k.Heap.Alloc(int(uint32(ar(a, 0))))
		if p == 0 {
			f.B(1)
			return 0, rtos.ErrNoMem
		}
		f.B(2)
		return p, rtos.OK
	})

	r.Reg("k_free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Heap.Free(ar(a, 0))
	})

	// Bug #4 (Table 2): k_heap_init accepts any non-zero size, but the chunk
	// header needs 64 bytes; smaller arenas scribble the header past the
	// allocation.
	r.Reg("k_heap_init", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		size := int(uint32(ar(a, 0)))
		o.fnHeapIn.Enter()
		defer o.fnHeapIn.Exit()
		if size == 0 {
			o.fnHeapIn.B(1)
			return 0, rtos.ErrInval
		}
		o.fnHeapIn.B(2)
		if size < 64 {
			o.fnHeapIn.B(3)
			k.PanicFault(cpu.FaultMemManage, fmt.Sprintf(
				"k_heap_init: chunk header does not fit in %d-byte arena", size))
		}
		if size > 64*1024 {
			o.fnHeapIn.B(4)
			return 0, rtos.ErrNoMem
		}
		base := k.Heap.Alloc(size)
		if base == 0 {
			o.fnHeapIn.B(5)
			return 0, rtos.ErrNoMem
		}
		o.fnHeapIn.B(6)
		obj := k.Objects.New(rtos.ObjHeapRef, "kheap", &kheap{base: base, size: size})
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("k_heap_alloc", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(ar(a, 0)), rtos.ObjHeapRef)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		h, ok := obj.Data.(*kheap)
		if !ok {
			f.B(2)
			return 0, rtos.ErrType
		}
		n := (int(uint32(ar(a, 1))) + 7) &^ 7
		if n <= 0 || h.used+n > h.size {
			f.B(3)
			return 0, rtos.ErrNoMem
		}
		f.B(4)
		addr := h.base + uint64(h.used)
		h.used += n
		return addr, rtos.OK
	})

	r.Reg("sys_heap_stress", 10, o.sysHeapStress)

	r.Reg("sys_heap_validate", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		if !k.Heap.Walk() {
			f.B(1)
			return 0, rtos.ErrState
		}
		f.B(2)
		return 1, rtos.OK
	})

	r.Reg("json_obj_parse", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		data := apiutil.Bytes(k, ar(a, 0), int(uint32(ar(a, 1))), 4096)
		h, e := o.json.Parse(data)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	// Bug #3 (Table 2) lives inside the library build: pretty-encoding a
	// nested object overruns the indent table in json_obj_encode.
	r.Reg("json_obj_encode", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		out, e := o.json.Encode(uint32(ar(a, 0)), uint32(ar(a, 1)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(len(out)), rtos.OK
	})

	r.Reg("json_obj_free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.json.Free(uint32(ar(a, 0)))
	})

	r.Reg("printk_api", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msg := apiutil.CString(k, ar(a, 0), 128, "")
		if msg == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		k.Kprintf("%s\n", msg)
		return uint64(len(msg)), rtos.OK
	})

	r.Reg("drv_spi_open", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		h, e := o.drv.Open()
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("drv_spi_control", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ret, e := o.drv.Ctl(uint32(ar(a, 0)), uint32(ar(a, 1)), uint32(ar(a, 2)))
		if e.Failed() {
			f.B(1)
			return ret, e
		}
		f.B(2)
		return ret, rtos.OK
	})

	r.Reg("drv_spi_release", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.drv.Close(uint32(ar(a, 0)))
	})

	r.Reg("gpio_pin_configure", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[0].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("gpio_pin_get", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[0].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("adc_channel_setup", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[1].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("adc_read", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[1].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("can_set_mode", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[2].Config(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("can_recv", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[2].Read(uint32(ar(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})
}

// sysHeapStress is Zephyr's heap stress-test entry. Bug #1 (Table 2): the
// fixed 50-slot pointer-tracking array is indexed by the op counter when the
// size class is large, overflowing on long large-block runs.
func (o *OS) sysHeapStress(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
	k := o.k
	ops := int(uint32(apiutil.Arg(a, 0)))
	maxSize := int(uint32(apiutil.Arg(a, 1)))
	s := o.fnStress
	s.Enter()
	defer s.Exit()
	if ops <= 0 || ops > 1000 {
		s.B(1)
		return 0, rtos.ErrInval
	}
	if maxSize <= 0 || maxSize > 8192 {
		s.B(2)
		return 0, rtos.ErrInval
	}
	s.B(3)
	live := make([]uint64, 0, 50)
	for i := 0; i < ops; i++ {
		if maxSize > 2048 && i > 50 {
			s.B(4)
			k.PanicFault(cpu.FaultPanic, fmt.Sprintf(
				"sys_heap_stress: tracking array overflow at op %d (max_size=%d)", i, maxSize))
		}
		sz := 8 + int(k.Rand()%uint64(maxSize))
		if k.Rand()%3 == 0 && len(live) > 0 {
			s.B(5)
			idx := int(k.Rand()) % len(live)
			if idx < 0 {
				idx = -idx
			}
			k.Heap.Free(live[idx])
			live = append(live[:idx], live[idx+1:]...)
		} else {
			p := k.Heap.Alloc(sz)
			if p == 0 {
				s.B(6)
				break
			}
			s.B(7)
			if len(live) < cap(live) {
				live = append(live, p)
			} else {
				k.Heap.Free(p)
			}
		}
	}
	for _, p := range live {
		k.Heap.Free(p)
	}
	s.B(8)
	if !k.Heap.Walk() {
		s.B(9)
		return 0, rtos.ErrState
	}
	return uint64(ops), rtos.OK
}
