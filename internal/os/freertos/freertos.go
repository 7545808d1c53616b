// Package freertos is the FreeRTOS personality: the xTask/xQueue/xSemaphore
// API surface over the shared kernel framework, the heap_4-style allocator
// symbols, a partition loader carrying Table-2 bug #13 (a kernel-partition-
// corrupting write that bricks the board until reflash), and the HTTP/JSON
// application components used by the paper's application-level evaluation.
package freertos

import (
	"fmt"

	"github.com/eof-fuzz/eof/internal/agent"
	"github.com/eof-fuzz/eof/internal/app/httpd"
	"github.com/eof-fuzz/eof/internal/app/jsonlib"
	"github.com/eof-fuzz/eof/internal/board"
	"github.com/eof-fuzz/eof/internal/cpu"
	"github.com/eof-fuzz/eof/internal/os/apiutil"
	"github.com/eof-fuzz/eof/internal/osinfo"
	"github.com/eof-fuzz/eof/internal/rtos"
)

// Name is the canonical OS identifier.
const Name = "freertos"

// Version matches the paper's evaluated revision.
const Version = "v5.4"

// partTable is the build configuration's partition layout.
const partTable = `# name, type, offset, size
bootloader, app, 0x0, 0x10000
kernel, app, 0x10000, 0x400000
nvs, data, 0x410000, 0x10000
storage, data, 0x420000, 0x40000
`

// staticParts mirrors the partition table as the kernel's compiled-in copy
// (load_partitions walks this array).
var staticParts = []struct {
	name string
	off  int
	size int
}{
	{"bootloader", 0x0, 0x10000},
	{"kernel", 0x10000, 0x400000},
	{"nvs", 0x410000, 0x10000},
	{"storage", 0x420000, 0x40000},
}

// timeout sentinel: portMAX_DELAY.
const portMaxDelay = 0xFFFFFFFF

// OS is one booted FreeRTOS instance.
type OS struct {
	periphs []*rtos.Periph
	drv     *rtos.Driver
	env     *board.Env
	k       *rtos.Kernel
	json    *jsonlib.Lib
	http    *httpd.Server

	fnPanic *rtos.Fn
	fnLog   *rtos.Fn
	fnUART  *rtos.Fn

	partsLoaded map[int]bool
	reg         *apiutil.Registrar
}

// Info returns the host-visible build description.
func Info() *osinfo.Info {
	return &osinfo.Info{
		Name:               Name,
		Display:            "FreeRTOS",
		Version:            Version,
		PartTableText:      partTable,
		Builder:            Build,
		ExceptionSyms:      []string{"panic_handler"},
		Headers:            headers(),
		APINames:           apiNames(),
		BaseCodeBytes:      2_770_000,
		BytesPerBlock:      64,
		InstrBytesPerBlock: 155,
		BuildID:            0xF2EE5405,
		Dictionary: []string{
			// Complete examples lifted from the component's unit tests (the
			// paper feeds such examples to the LLM alongside the headers).
			"GET / HTTP/1.1\r\n\r\n",
			"GET /status?verbose=1 HTTP/1.1\r\n\r\n",
			"POST /api/echo HTTP/1.1\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\nhello",
			"POST /api/json HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\":123}",
			"{\"key\":\"value\"}",
			"[1,2.5,true,null]",
			// Fragments: deeper features (auth, device routes, chunked
			// bodies, nested documents) appear only as pieces that mutation
			// must assemble.
			"GET ", "POST ", "HEAD ", " HTTP/1.1\r\n",
			"/api/v1/device/", "/reset", "/config", "?pretty=1",
			"Authorization: Bearer ", "Authorization: Basic ", "dev-",
			"Cookie: session=", "Transfer-Encoding: chunked\r\n",
			"4\r\nwxyz\r\n0\r\n\r\n",
			"{\"a\":", "\"key\"", ":null}", ",true]", "{\"k\":{", "}}",
		},
	}
}

// Build constructs the firmware: kernel framework, FreeRTOS API table,
// application components and the execution agent.
func Build(env *board.Env) (board.Firmware, error) {
	k := rtos.NewKernel(env, "FreeRTOS")
	k.InitSched("xTaskIncrementTick", "prvSelectHighestPriorityTask", "vTaskSwitchContext", "tasks.c")

	heapBase := env.ScratchBase + agent.ArenaSize
	heapEnd := env.RAM.End() - 4096
	if heapBase+16*1024 > heapEnd {
		return nil, fmt.Errorf("freertos: RAM too small for heap")
	}
	k.NewHeap(heapBase, int(heapEnd-heapBase), "pvPortMalloc", "vPortFree", "prvHeapLock", "portable/heap_4.c")

	o := &OS{env: env, k: k, partsLoaded: make(map[int]bool)}
	o.fnPanic = k.Fn("panic_handler", "port/panic.c", 22, 2)
	o.fnLog = k.Fn("vLoggingPrintf", "logging/logging.c", 55, 4)
	o.fnUART = k.Fn("uart_poll_out", "drivers/uart_pl011.c", 88, 3)
	k.ExceptionFn = o.fnPanic
	k.ConsoleWrite = o.consoleWrite

	o.json = jsonlib.New(k)
	o.http = httpd.New(k, o.json)
	o.drv = k.NewDriver("dma", "xDmaAcquire", "xDmaControl", "vDmaRelease", "drivers/dma_ctrl.c")
	o.periphs = append(o.periphs, k.NewPeriph("gpio", "xGpioConfig", "xGpioRead", "drivers/gpio_stm32.c"))
	o.periphs = append(o.periphs, k.NewPeriph("adc", "xAdcConfig", "xAdcRead", "drivers/adc_stm32.c"))
	o.periphs = append(o.periphs, k.NewPeriph("can", "xCanConfig", "xCanRead", "drivers/can_stm32.c"))
	o.buildTable()
	if len(o.reg.Table) != len(apiOrder) {
		return nil, fmt.Errorf("freertos: API table drift: %d registered, %d declared", len(o.reg.Table), len(apiOrder))
	}
	for i, e := range o.reg.Table {
		if e.Name != apiOrder[i] {
			return nil, fmt.Errorf("freertos: API order drift at %d: %s != %s", i, e.Name, apiOrder[i])
		}
	}
	return agent.New(env, o), nil
}

// consoleWrite is the FreeRTOS logging chain: vLoggingPrintf → uart_poll_out.
func (o *OS) consoleWrite(s string) {
	o.fnLog.Enter()
	o.fnLog.B(1)
	o.fnUART.Enter()
	o.env.UART.WriteString(s)
	o.fnUART.Exit()
	o.fnLog.Exit()
}

// Name implements agent.Target.
func (o *OS) Name() string { return Name }

// Kernel implements agent.Target.
func (o *OS) Kernel() *rtos.Kernel { return o.k }

// APIs implements agent.Target.
func (o *OS) APIs() []agent.API { return o.reg.Table }

// apiNames is the canonical dispatch order; Info().APINames and the agent
// table are both derived from the buildTable registration sequence, so they
// cannot drift.
func apiNames() []string {
	names := make([]string, len(apiOrder))
	copy(names, apiOrder)
	return names
}

var apiOrder = []string{
	"xTaskCreate",
	"vTaskDelete",
	"vTaskDelay",
	"vTaskPrioritySet",
	"vTaskSuspend",
	"vTaskResume",
	"uxTaskGetNumberOfTasks",
	"xQueueCreate",
	"xQueueSend",
	"xQueueReceive",
	"vQueueDelete",
	"xSemaphoreCreateBinary",
	"xSemaphoreCreateCounting",
	"xSemaphoreCreateMutex",
	"xSemaphoreTake",
	"xSemaphoreGive",
	"xEventGroupCreate",
	"xEventGroupSetBits",
	"xEventGroupWaitBits",
	"xTimerCreate",
	"xTimerStart",
	"xTimerStop",
	"pvPortMalloc",
	"vPortFree",
	"xPortGetFreeHeapSize",
	"load_partitions",
	"vLoggingPrintf",
	"http_server_init",
	"http_server_handle",
	"json_parse",
	"json_encode",
	"json_free",
	"xDmaAcquire",
	"xDmaControl",
	"vDmaRelease",
	"xGpioConfig",
	"xGpioRead",
	"xAdcConfig",
	"xAdcRead",
	"xCanConfig",
	"xCanRead",
}

func (o *OS) buildTable() {
	k := o.k
	o.reg = &apiutil.Registrar{K: k, File: "api/freertos_api.c"}
	r := o.reg
	arg := apiutil.Arg

	r.Reg("xTaskCreate", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		name := apiutil.CString(k, arg(a, 0), 16, "task")
		prio := int(uint32(arg(a, 1)))
		stack := int(uint32(arg(a, 2)))
		behavior := int(arg(a, 3))
		if prio > rtos.PrioMin {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		if stack < rtos.StackMin {
			f.B(3)
			return 0, rtos.ErrInval
		}
		f.B(4)
		obj, e := k.Sched.Create(name, prio, stack, behavior)
		if e.Failed() {
			f.B(5)
			return 0, e
		}
		f.B(6)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("vTaskDelete", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		t := obj.Data.(*rtos.Task)
		if t.State() == rtos.TaskRunning {
			f.B(2) // deleting the running task defers to idle cleanup
		}
		f.B(3)
		k.Sched.SetState(t, rtos.TaskDead)
		return 0, k.Objects.Delete(obj.ID)
	})

	r.Reg("vTaskDelay", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ticks := uint32(arg(a, 0))
		if ticks == 0 {
			f.B(1)
			return 0, rtos.OK
		}
		if ticks > 10_000 {
			f.B(2)
			ticks = 10_000 // clamp like configMAX_DELAY_CLAMP builds
		}
		f.B(3)
		k.Sleep(int(ticks))
		return 0, rtos.OK
	})

	r.Reg("vTaskPrioritySet", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTask)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		prio := int(uint32(arg(a, 1)))
		if prio > rtos.PrioMin {
			f.B(2)
			return 0, rtos.ErrInval
		}
		t := obj.Data.(*rtos.Task)
		if prio < t.Prio() {
			f.B(3) // raising priority may preempt
		}
		f.B(4)
		k.Sched.SetPrio(t, prio)
		t.BasePrio = prio
		return 0, rtos.OK
	})

	r.Reg("vTaskSuspend", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTask)
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

	r.Reg("vTaskResume", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTask)
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

	r.Reg("uxTaskGetNumberOfTasks", 2, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return uint64(k.Sched.TaskCount()), rtos.OK
	})

	r.Reg("xQueueCreate", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		depth := int(uint32(arg(a, 0)))
		item := int(uint32(arg(a, 1)))
		obj, e := k.NewQueue("queue", item, depth)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("xQueueSend", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		ptr := arg(a, 1)
		if ptr == 0 {
			f.B(2)
			return 0, rtos.ErrInval
		}
		f.B(3)
		item := k.ReadRAM(ptr, q.ItemSize) // wild pointers fault here
		e = q.Send(item, o.timeout(arg(a, 2)))
		if e.Failed() {
			f.B(4)
			return 0, e
		}
		f.B(5)
		return 1, rtos.OK
	})

	r.Reg("xQueueReceive", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		q := obj.Data.(*rtos.Queue)
		item, e := q.Recv(o.timeout(arg(a, 1)))
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

	r.Reg("vQueueDelete", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjQueue)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, obj.Data.(*rtos.Queue).Destroy()
	})

	r.Reg("xSemaphoreCreateBinary", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewSemaphore("binsem", 0, 1)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("xSemaphoreCreateCounting", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		max := int(uint32(arg(a, 0)))
		initial := int(uint32(arg(a, 1)))
		obj, e := k.NewSemaphore("ctsem", initial, max)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("xSemaphoreCreateMutex", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewMutex("mutex", false)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	// FreeRTOS takes/gives mutexes through the semaphore API, so both object
	// types are accepted here — an honest quirk of the surface.
	r.Reg("xSemaphoreTake", 8, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		id := uint32(arg(a, 0))
		timeout := o.timeout(arg(a, 1))
		if obj, e := k.Objects.GetTyped(id, rtos.ObjSem); !e.Failed() {
			f.B(1)
			if e := obj.Data.(*rtos.Semaphore).Take(timeout); e.Failed() {
				f.B(2)
				return 0, e
			}
			f.B(3)
			return 1, rtos.OK
		}
		if obj, e := k.Objects.GetTyped(id, rtos.ObjMutex); !e.Failed() {
			f.B(4)
			if e := obj.Data.(*rtos.Mutex).Lock(timeout); e.Failed() {
				f.B(5)
				return 0, e
			}
			f.B(6)
			return 1, rtos.OK
		}
		f.B(7)
		return 0, rtos.ErrNotFound
	})

	r.Reg("xSemaphoreGive", 7, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		id := uint32(arg(a, 0))
		if obj, e := k.Objects.GetTyped(id, rtos.ObjSem); !e.Failed() {
			f.B(1)
			if e := obj.Data.(*rtos.Semaphore).Give(); e.Failed() {
				f.B(2)
				return 0, e
			}
			f.B(3)
			return 1, rtos.OK
		}
		if obj, e := k.Objects.GetTyped(id, rtos.ObjMutex); !e.Failed() {
			f.B(4)
			if e := obj.Data.(*rtos.Mutex).Unlock(); e.Failed() {
				f.B(5)
				return 0, e
			}
			f.B(6)
			return 1, rtos.OK
		}
		return 0, rtos.ErrNotFound
	})

	r.Reg("xEventGroupCreate", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.NewEvent("events")
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("xEventGroupSetBits", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		ev := obj.Data.(*rtos.Event)
		if e := ev.Send(uint32(arg(a, 1))); e.Failed() {
			f.B(2)
			return 0, e
		}
		f.B(3)
		return uint64(ev.Bits), rtos.OK
	})

	r.Reg("xEventGroupWaitBits", 6, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjEvent)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		ev := obj.Data.(*rtos.Event)
		var opts uint32
		if arg(a, 2)&1 != 0 {
			f.B(2)
			opts |= rtos.EvtClear
		}
		if arg(a, 2)&2 != 0 {
			f.B(3)
			opts |= rtos.EvtAll
		}
		got, e := ev.Recv(uint32(arg(a, 1)), opts, o.timeout(arg(a, 3)))
		if e.Failed() {
			f.B(4)
			return 0, e
		}
		f.B(5)
		return uint64(got), rtos.OK
	})

	r.Reg("xTimerCreate", 5, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		period := arg(a, 0)
		auto := arg(a, 1) != 0
		obj, e := k.NewTimer("timer", period, !auto, int(arg(a, 2)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(obj.ID), rtos.OK
	})

	r.Reg("xTimerStart", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 1, obj.Data.(*rtos.Timer).Start()
	})

	r.Reg("xTimerStop", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		obj, e := k.Objects.GetTyped(uint32(arg(a, 0)), rtos.ObjTimer)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 1, obj.Data.(*rtos.Timer).Stop()
	})

	r.Reg("pvPortMalloc", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		n := int(uint32(arg(a, 0)))
		p := k.Heap.Alloc(n)
		if p == 0 {
			f.B(1)
			return 0, rtos.ErrNoMem
		}
		f.B(2)
		return p, rtos.OK
	})

	r.Reg("vPortFree", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, k.Heap.Free(arg(a, 0))
	})

	r.Reg("xPortGetFreeHeapSize", 2, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		_, _, free := k.Heap.Stats()
		return uint64(free), rtos.OK
	})

	r.Reg("load_partitions", 10, o.loadPartitions)

	r.Reg("vLoggingPrintf", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		msg := apiutil.CString(k, arg(a, 0), 128, "")
		if msg == "" {
			f.B(1)
			return 0, rtos.ErrInval
		}
		f.B(2)
		k.Kprintf("%s\n", msg)
		return uint64(len(msg)), rtos.OK
	})

	r.Reg("http_server_init", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.http.Init(int(uint32(arg(a, 0))))
	})

	r.Reg("http_server_handle", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		req := o.blobBytes(arg(a, 0), int(uint32(arg(a, 1))))
		status, e := o.http.Handle(req)
		if e.Failed() {
			f.B(1)
			return uint64(status), e
		}
		f.B(2)
		return uint64(status), rtos.OK
	})

	r.Reg("json_parse", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		data := o.blobBytes(arg(a, 0), int(uint32(arg(a, 1))))
		h, e := o.json.Parse(data)
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("json_encode", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		out, e := o.json.Encode(uint32(arg(a, 0)), uint32(arg(a, 1)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(len(out)), rtos.OK
	})

	r.Reg("json_free", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.json.Free(uint32(arg(a, 0)))
	})

	r.Reg("xDmaAcquire", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		h, e := o.drv.Open()
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return uint64(h), rtos.OK
	})

	r.Reg("xDmaControl", 4, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		ret, e := o.drv.Ctl(uint32(arg(a, 0)), uint32(arg(a, 1)), uint32(arg(a, 2)))
		if e.Failed() {
			f.B(1)
			return ret, e
		}
		f.B(2)
		return ret, rtos.OK
	})

	r.Reg("vDmaRelease", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		f.B(1)
		return 0, o.drv.Close(uint32(arg(a, 0)))
	})

	r.Reg("xGpioConfig", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[0].Config(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("xGpioRead", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[0].Read(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("xAdcConfig", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[1].Config(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("xAdcRead", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[1].Read(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})

	r.Reg("xCanConfig", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		e := o.periphs[2].Config(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return 0, rtos.OK
	})

	r.Reg("xCanRead", 3, func(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
		v, e := o.periphs[2].Read(uint32(arg(a, 0)))
		if e.Failed() {
			f.B(1)
			return 0, e
		}
		f.B(2)
		return v, rtos.OK
	})
}

// Partition loader flags.
const (
	partVerify = 1 << 0
	partRO     = 1 << 1
	partRemap  = 1 << 3
)

// loadPartitions mounts a partition by index. Bug #13 (Table 2): combining
// the undocumented remap flag with the last (data) partition computes the
// mount-record address from the *doubled* offset, a write that lands inside
// the kernel image in flash — corrupting it — before the loader panics on
// its own verification. The board then fails to reboot until the host
// reflashes, exercising the full state-restoration path.
func (o *OS) loadPartitions(f *rtos.Fn, a []uint64) (uint64, rtos.Errno) {
	idx := int(uint32(apiutil.Arg(a, 0)))
	flags := uint32(apiutil.Arg(a, 1))
	if idx < 0 || idx >= len(staticParts) {
		f.B(1)
		return 0, rtos.ErrInval
	}
	f.B(2)
	if flags&^uint32(partVerify|partRO|partRemap) != 0 {
		f.B(3)
		return 0, rtos.ErrInval
	}
	p := staticParts[idx]
	if flags&partVerify != 0 {
		f.B(4)
		raw, err := o.env.Flash.Read(p.off, 4)
		if err != nil || (p.name != "nvs" && p.name != "storage" && raw[0] == 0xFF) {
			f.B(5)
			return 0, rtos.ErrState
		}
	}
	if flags&partRemap != 0 {
		f.B(6)
		if idx == len(staticParts)-1 {
			f.B(7)
			// BUG: the remap path doubles the offset when computing where to
			// write the mount record; for the last partition that lands in
			// the kernel image.
			dest := p.off / 2
			o.env.Flash.Corrupt(dest, 64, 0x00)
			o.k.PanicFault(cpu.FaultPanic, fmt.Sprintf(
				"load_partitions: mount record verify failed for %q (remap)", p.name))
		}
		f.B(8)
	}
	f.B(9)
	o.partsLoaded[idx] = true
	return uint64(p.size), rtos.OK
}

// timeout converts a FreeRTOS tick timeout (portMAX_DELAY = forever).
func (o *OS) timeout(v uint64) int { return apiutil.Timeout32(v, portMaxDelay) }

// blobBytes reads a staged byte-buffer argument; a null or wild pointer
// faults just like the real dereference would.
func (o *OS) blobBytes(ptr uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	if n > 4096 {
		n = 4096
	}
	return o.k.ReadRAM(ptr, n)
}
