package rtos

import (
	"testing"

	"github.com/eof-fuzz/eof/internal/cov"
)

// BenchmarkKernelTick times one kernel tick on a warm kernel shaped like a
// campaign's: 24 tasks over the four behaviours, a third of them dead or
// suspended, 18 held heap allocations, 16 periodic timers over the three
// callback behaviours, and an instrumented core feeding a coverage runtime.
func BenchmarkKernelTick(b *testing.B) {
	k := newTestKernel()
	const covCap = 4096
	rt := cov.NewRuntime(make([]byte, cov.BufferBytes(covCap)), covCap)
	k.Env.Core.SetInstrumented(true)
	k.Env.Core.SetCovHook(rt, 0)
	runKernel(b, k, func(k *Kernel) {
		k.InitSched("tick", "pick", "switch", "sched.c")
		for i := 0; i < 24; i++ {
			o, _ := k.Sched.Create("t", 4+i%5, 256, i%NumBehaviors)
			switch t := o.Data.(*Task); i % 6 {
			case 1:
				k.Sched.SetState(t, TaskDead)
				k.Objects.Delete(o.ID)
			case 4:
				k.Sched.SetState(t, TaskSuspended)
			}
		}
		for i := 0; i < 16; i++ {
			o, _ := k.NewTimer("tm", uint64(5+7*i), false, i%3)
			o.Data.(*Timer).Start()
		}
		for i := 0; i < 18; i++ {
			k.Heap.Alloc(16 + 40*i)
		}
		k.TickN(2000)
		blocks := k.Env.Core.TotalBlocks()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Tick()
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
		b.ReportMetric(float64(k.Env.Core.TotalBlocks()-blocks)/float64(b.N), "blocks/tick")
	})
}
