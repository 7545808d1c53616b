package cpu

import (
	"testing"

	"github.com/eof-fuzz/eof/internal/cov"
)

// BenchmarkStep times one instrumented block on an edge the coverage guard
// already holds, a campaign's common block: a loop of eight blocks feeding
// a *cov.Runtime, with one breakpoint armed off the loop. The filtered case
// confines the runtime to a range holding the whole loop, as a campaign's
// coverage modules do, so its blocks take the interface TracePC.
func BenchmarkStep(b *testing.B) {
	for _, bc := range []struct {
		name   string
		filter func(pc uint64) bool
	}{
		{"unfiltered", nil},
		{"filtered", func(pc uint64) bool { return pc < 0x2000 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			_, c := newCore()
			const capacity = 64
			rt := cov.NewRuntime(make([]byte, cov.BufferBytes(capacity)), capacity)
			rt.SetFilter(bc.filter)
			c.SetInstrumented(true)
			c.SetCovHook(rt, 0xFFF0)
			if err := c.SetBreakpoint(0x2000); err != nil {
				b.Fatal(err)
			}
			loop := []uint64{0x1000, 0x1004, 0x1010, 0x1014, 0x1008, 0x1020, 0x1024, 0x100c}
			c.Start(linearFirmware(c, loop))
			defer c.Kill()
			c.Continue(int64(2 * len(loop))) // the first lap records every edge
			b.ReportAllocs()
			b.ResetTimer()
			if st := c.Continue(int64(b.N)); st.Kind != StopBudget {
				b.Fatalf("stop = %+v", st)
			}
		})
	}
}
