package cpu

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/eof-fuzz/eof/internal/cov"
	"github.com/eof-fuzz/eof/internal/vtime"
)

func newCore() (*vtime.Clock, *Core) {
	clock := &vtime.Clock{}
	return clock, New(clock, DefaultConfig())
}

// linearFirmware steps through addrs repeatedly until killed.
func linearFirmware(c *Core, addrs []uint64) func() {
	return func() {
		for {
			for _, a := range addrs {
				c.Step(a)
			}
		}
	}
}

func TestBreakpointStopAndResume(t *testing.T) {
	_, c := newCore()
	c.Start(linearFirmware(c, []uint64{0x100, 0x104, 0x108}))
	if err := c.SetBreakpoint(0x108); err != nil {
		t.Fatal(err)
	}
	st := c.Continue(1_000_000)
	if st.Kind != StopBreakpoint || st.PC != 0x108 {
		t.Fatalf("stop = %+v", st)
	}
	// Resume: should come back around to the same breakpoint.
	st = c.Continue(1_000_000)
	if st.Kind != StopBreakpoint || st.PC != 0x108 {
		t.Fatalf("second stop = %+v", st)
	}
	c.ClearBreakpoint(0x108)
	st = c.Continue(100)
	if st.Kind != StopBudget {
		t.Fatalf("after clear, stop = %+v", st)
	}
	c.Kill()
}

func TestBudgetStopStablePC(t *testing.T) {
	_, c := newCore()
	// Single-block spin: the stall signature.
	c.Start(linearFirmware(c, []uint64{0x200}))
	st1 := c.Continue(1000)
	st2 := c.Continue(1000)
	if st1.Kind != StopBudget || st2.Kind != StopBudget {
		t.Fatalf("stops = %v, %v", st1.Kind, st2.Kind)
	}
	if st1.PC != st2.PC {
		t.Fatalf("spin PC moved: %#x -> %#x", st1.PC, st2.PC)
	}
	c.Kill()
}

func TestFaultStop(t *testing.T) {
	_, c := newCore()
	c.Start(func() {
		c.Step(0x300)
		c.RaiseFault(&Fault{Kind: FaultBus, Msg: "boom"})
		// After resume, wedge.
		for {
			c.Idle(0x304, 100)
		}
	})
	st := c.Continue(1_000_000)
	if st.Kind != StopFault || st.Fault == nil || st.Fault.Msg != "boom" {
		t.Fatalf("stop = %+v", st)
	}
	if st.Fault.PC != 0x300 {
		t.Fatalf("fault PC = %#x", st.Fault.PC)
	}
	st = c.Continue(500)
	if st.Kind != StopBudget || st.PC != 0x304 {
		t.Fatalf("post-fault stop = %+v", st)
	}
	c.Kill()
}

func TestKillWhileParked(t *testing.T) {
	_, c := newCore()
	c.Start(linearFirmware(c, []uint64{0x400}))
	c.Continue(10)
	c.Kill()
	if !c.Dead() {
		t.Fatal("core alive after kill")
	}
	st := c.Continue(10)
	if st.Kind != StopExit {
		t.Fatalf("continue after kill = %+v", st)
	}
	// Double kill is safe.
	c.Kill()
}

func TestKillBeforeFirstContinue(t *testing.T) {
	_, c := newCore()
	c.Start(linearFirmware(c, []uint64{0x500}))
	c.Kill()
	if !c.Dead() {
		t.Fatal("core alive")
	}
}

func TestExit(t *testing.T) {
	_, c := newCore()
	c.Start(func() { c.Step(0x600) })
	st := c.Continue(1000)
	if st.Kind != StopExit {
		t.Fatalf("stop = %+v", st)
	}
	if !c.Dead() {
		t.Fatal("not dead after exit")
	}
}

// TestGoexitEndsRun checks that firmware leaving through runtime.Goexit, as
// a test's t.FailNow does on the target goroutine, ends the run with
// StopExit instead of leaving Continue blocked.
func TestGoexitEndsRun(t *testing.T) {
	_, c := newCore()
	c.Start(func() {
		c.Step(0x900)
		runtime.Goexit()
	})
	done := make(chan Stop, 1)
	go func() { done <- c.Continue(1000) }()
	select {
	case st := <-done:
		if st.Kind != StopExit || st.PC != 0x900 {
			t.Fatalf("stop = %+v", st)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Continue still blocked after the firmware's Goexit")
	}
	if !c.Dead() {
		t.Fatal("not dead after Goexit")
	}
}

func TestClockAdvancesWithSteps(t *testing.T) {
	clock, c := newCore()
	c.Start(linearFirmware(c, []uint64{0x700, 0x704}))
	c.Continue(1000)
	// 1000 blocks, each charged per-step: 6 cycles at 160MHz truncates to 37ns.
	perStep := vtime.CycleModel{HZ: 160_000_000}.Duration(6)
	want := 1000 * perStep
	if got := clock.Now(); got != want {
		t.Fatalf("clock = %v, want %v", got, want)
	}
	if c.TotalBlocks() != 1000 {
		t.Fatalf("blocks = %d", c.TotalBlocks())
	}
	c.Kill()
}

// hookFunc adapts a function to CovHook.
type hookFunc func(pc uint64) bool

func (f hookFunc) TracePC(pc uint64) bool { return f(pc) }

func TestInstrumentationCostAndCovHook(t *testing.T) {
	clock, c := newCore()
	c.SetInstrumented(true)
	var hits int
	full := false
	c.SetCovHook(hookFunc(func(pc uint64) bool {
		hits++
		return full
	}), 0xFFF0)
	c.Start(linearFirmware(c, []uint64{0x800}))
	c.Continue(100)
	if hits != 100 {
		t.Fatalf("cov hook hits = %d", hits)
	}
	want := 100 * vtime.CycleModel{HZ: 160_000_000}.Duration(8)
	if got := clock.Now(); got != want {
		t.Fatalf("instrumented clock = %v, want %v", got, want)
	}
	// Trigger a buffer-full trap.
	full = true
	st := c.Continue(100)
	if st.Kind != StopCovFull || st.PC != 0xFFF0 {
		t.Fatalf("cov-full stop = %+v", st)
	}
	full = false
	st = c.Continue(100)
	if st.Kind != StopBudget || st.PC != 0x800 {
		t.Fatalf("resume after trap = %+v", st)
	}
	c.Kill()
}

func TestBreakpointLimit(t *testing.T) {
	_, c := newCore()
	max := c.MaxBreakpoints()
	for i := 0; i < max; i++ {
		if err := c.SetBreakpoint(uint64(0x1000 + i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetBreakpoint(0x9000); err == nil {
		t.Fatal("exceeded breakpoint limit silently")
	}
	// Re-arming an existing breakpoint is free.
	if err := c.SetBreakpoint(0x1000); err != nil {
		t.Fatal(err)
	}
	c.ClearBreakpoint(0x1000)
	if err := c.SetBreakpoint(0x9000); err != nil {
		t.Fatal(err)
	}
	if c.BreakpointCount() != max {
		t.Fatalf("count = %d", c.BreakpointCount())
	}
	c.ClearAllBreakpoints()
	if c.BreakpointCount() != 0 {
		t.Fatal("clear-all left breakpoints")
	}
}

func TestIdleRespectsBudget(t *testing.T) {
	_, c := newCore()
	c.Start(func() {
		for {
			c.Idle(0xA00, 1<<20)
		}
	})
	st := c.Continue(100)
	if st.Kind != StopBudget || st.PC != 0xA00 {
		t.Fatalf("idle stop = %+v", st)
	}
	c.Kill()
}

func TestStopKindStrings(t *testing.T) {
	kinds := []StopKind{StopBreakpoint, StopFault, StopBudget, StopCovFull, StopExit, StopKilled}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
	faults := []FaultKind{FaultBus, FaultUsage, FaultMemManage, FaultHard, FaultPanic}
	for _, k := range faults {
		if k.String() == "" {
			t.Fatal("empty fault name")
		}
	}
}

// TestBreakpointFilterExact runs Set/Clear/ClearAll sequences over a loop of
// block addresses, two of which share a filter bit, and checks that the core
// stops at exactly the armed addresses, in loop order, and never at a
// cleared one.
func TestBreakpointFilterExact(t *testing.T) {
	const base = 0x0800_1000
	twin := uint64(base + 4)
	for bpBit(twin) != bpBit(base) {
		twin += 4
	}
	loop := []uint64{base, twin}
	for a := uint64(base + 2); len(loop) < 12; a += 4 {
		loop = append(loop, a)
	}
	_, c := newCore()
	c.Start(linearFirmware(c, loop))
	defer c.Kill()

	armed := map[uint64]bool{}
	next := 0 // index in loop of the block the core steps next
	check := func(step string) {
		t.Helper()
		var want []uint64
		for a := range armed {
			want = append(want, a)
		}
		slices.Sort(want)
		if got := c.Breakpoints(); !slices.Equal(got, want) || c.BreakpointCount() != len(want) {
			t.Fatalf("%s: breakpoints %#x (count %d), want %#x", step, got, c.BreakpointCount(), want)
		}
		for round := 0; round < 3; round++ {
			if len(armed) == 0 {
				st := c.Continue(int64(len(loop)))
				next = (next + len(loop)) % len(loop)
				if want := loop[(next+len(loop)-1)%len(loop)]; st.Kind != StopBudget || st.PC != want {
					t.Fatalf("%s: stop %+v, want budget at %#x", step, st, want)
				}
				continue
			}
			want := next
			for !armed[loop[want]] {
				want = (want + 1) % len(loop)
			}
			// The budget covers one lap, so a missed breakpoint ends in a
			// budget stop instead of running forever.
			st := c.Continue(int64(len(loop)))
			if st.Kind != StopBreakpoint || st.PC != loop[want] {
				t.Fatalf("%s: stop %+v, want breakpoint at %#x (armed %v)", step, st, loop[want], armed)
			}
			next = (want + 1) % len(loop)
		}
	}
	set := func(a uint64) {
		t.Helper()
		if err := c.SetBreakpoint(a); err != nil {
			t.Fatal(err)
		}
		armed[a] = true
	}
	clearBP := func(a uint64) {
		c.ClearBreakpoint(a)
		delete(armed, a)
	}

	// The twin shares base's filter bit, so only the scan of the armed
	// addresses behind the filter can tell them apart.
	set(base)
	check("base armed")
	set(twin)
	check("base and twin armed")
	clearBP(base)
	check("base cleared, twin armed")
	clearBP(twin)
	check("both cleared")
	set(twin)
	set(loop[5])
	c.ClearAllBreakpoints()
	clear(armed)
	check("cleared all")

	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		a := loop[rnd.Intn(len(loop))]
		switch r := rnd.Intn(10); {
		case r == 0:
			c.ClearAllBreakpoints()
			clear(armed)
		case r < 5:
			clearBP(a)
		case len(armed) < c.MaxBreakpoints():
			set(a)
		}
		check(fmt.Sprintf("op %d", i))
	}
}

// traceOnly hides a coverage runtime's type from the core, which then calls
// TracePC through CovHook on every block instead of running guard hits
// inline.
type traceOnly struct{ rt *cov.Runtime }

func (h traceOnly) TracePC(pc uint64) bool { return h.rt.TracePC(pc) }

// TestInlineGuardHitMatchesTracePC drives two cores through the same seeded
// block stream and host script: one with a *cov.Runtime hook, whose guard
// hits Step runs inline, and one with an identical runtime behind
// traceOnly. Small buffers trap mid-stream, the host drains them and resets
// guard epochs, breakpoints come and go, and most continues get a budget of
// 1–3 blocks, so guard hits meet every kind of stop Step makes. At every
// stop the cores must agree on the stop, the clock, the block count and
// every byte of the coverage buffer.
func TestInlineGuardHitMatchesTracePC(t *testing.T) {
	for _, tc := range []struct {
		name     string
		capacity int
		filter   func(pc uint64) bool
	}{
		{"tiny", 4, nil},
		{"small", 48, nil},
		{"filtered", 48, func(pc uint64) bool { return pc%12 != 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type side struct {
				clock *vtime.Clock
				core  *Core
				rt    *cov.Runtime
				ram   []byte
			}
			newSide := func(inline bool) *side {
				s := &side{ram: make([]byte, cov.BufferBytes(tc.capacity))}
				s.clock, s.core = newCore()
				s.rt = cov.NewRuntime(s.ram, tc.capacity)
				s.rt.SetFilter(tc.filter)
				var hook CovHook = s.rt
				if !inline {
					hook = traceOnly{s.rt}
				}
				s.core.SetInstrumented(true)
				s.core.SetCovHook(hook, 0xFFF0)
				s.core.Start(func() {
					rnd := rand.New(rand.NewSource(7))
					for {
						s.core.Step(0x1000 + uint64(rnd.Intn(16))*4)
					}
				})
				return s
			}
			sides := [2]*side{newSide(true), newSide(false)}
			defer sides[0].core.Kill()
			defer sides[1].core.Kill()
			drain := func() {
				for _, s := range sides {
					binary.LittleEndian.PutUint32(s.ram[4:], 0)
					s.rt.SyncFromRAM()
				}
			}

			rnd := rand.New(rand.NewSource(1))
			stops := map[StopKind]int{}
			for step := 0; step < 4000; step++ {
				addr := 0x1000 + uint64(rnd.Intn(16))*4
				switch rnd.Intn(24) {
				case 0: // the agent starts a test case
					for _, s := range sides {
						s.rt.ResetEpoch()
					}
				case 1: // the host clears the buffer's count
					drain()
				case 2, 3:
					for _, s := range sides {
						if s.core.BreakpointCount() < s.core.MaxBreakpoints() {
							if err := s.core.SetBreakpoint(addr); err != nil {
								t.Fatal(err)
							}
						}
					}
				case 4, 5:
					for _, s := range sides {
						s.core.ClearBreakpoint(addr)
					}
				}
				budget := int64(1 + rnd.Intn(3))
				if rnd.Intn(8) == 0 {
					budget = int64(4 + rnd.Intn(60))
				}
				inline, traced := sides[0].core.Continue(budget), sides[1].core.Continue(budget)
				if inline.Kind != traced.Kind || inline.PC != traced.PC {
					t.Fatalf("step %d: stop %v at %#x inline, %v at %#x through TracePC",
						step, inline.Kind, inline.PC, traced.Kind, traced.PC)
				}
				stops[inline.Kind]++
				a, b := sides[0], sides[1]
				if a.clock.Now() != b.clock.Now() || a.core.TotalBlocks() != b.core.TotalBlocks() {
					t.Fatalf("step %d: clock %v, %d blocks inline; %v, %d through TracePC",
						step, a.clock.Now(), a.core.TotalBlocks(), b.clock.Now(), b.core.TotalBlocks())
				}
				if !bytes.Equal(a.ram, b.ram) {
					t.Fatalf("step %d (%v stop): coverage buffer %x inline, %x through TracePC",
						step, inline.Kind, a.ram, b.ram)
				}
				if inline.Kind == StopCovFull && rnd.Intn(2) == 0 {
					drain()
				}
			}
			for _, k := range []StopKind{StopCovFull, StopBreakpoint, StopBudget} {
				if stops[k] == 0 {
					t.Errorf("no %v stop in %v", k, stops)
				}
			}
		})
	}
}
