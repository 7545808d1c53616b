package cov

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func newRT(capacity int) (*Runtime, []byte) {
	ram := make([]byte, BufferBytes(capacity))
	return NewRuntime(ram, capacity), ram
}

func TestTracePCRecordsOncePerEpoch(t *testing.T) {
	rt, ram := newRT(16)
	rt.TracePC(0x100)
	rt.TracePC(0x104)
	rt.TracePC(0x100) // new edge (104->100), records
	if rt.Count() != 3 {
		t.Fatalf("count = %d", rt.Count())
	}
	// Same path again: all edges guarded, nothing recorded.
	rt.TracePC(0x104)
	rt.TracePC(0x100)
	if rt.Count() != 3 {
		t.Fatalf("after repeat, count = %d", rt.Count())
	}
	entries, lost, err := Decode(ram)
	if err != nil || lost != 0 || len(entries) != 3 {
		t.Fatalf("decode: %d entries, lost %d, %v", len(entries), lost, err)
	}
}

func TestEpochResetReRecords(t *testing.T) {
	rt, _ := newRT(16)
	rt.TracePC(0x100)
	rt.TracePC(0x104)
	rt.ResetEpoch()
	rt.TracePC(0x100)
	rt.TracePC(0x104)
	if rt.Count() != 4 {
		t.Fatalf("count = %d", rt.Count())
	}
}

func TestBufferFullTrapAndHostClear(t *testing.T) {
	rt, ram := newRT(4)
	trapped := 0
	for i := 0; i < 10; i++ {
		if rt.TracePC(uint64(0x1000 + i*4)) {
			trapped++
		}
	}
	if trapped != 1 {
		t.Fatalf("trapped %d times, want exactly 1", trapped)
	}
	entries, lost, err := Decode(ram)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 || lost == 0 {
		t.Fatalf("entries %d lost %d", len(entries), lost)
	}
	// Host clears the buffer (count=0), runtime self-heals and records again.
	binary.LittleEndian.PutUint32(ram[4:], 0)
	if rt.TracePC(0x9000) {
		t.Fatal("trap immediately after clear")
	}
	if rt.Count() != 1 {
		t.Fatalf("count after clear = %d", rt.Count())
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Fatal("nil decoded")
	}
	raw := make([]byte, BufferBytes(4))
	if _, _, err := Decode(raw); err == nil {
		t.Fatal("zero magic decoded")
	}
	_, ram := newRT(4)
	binary.LittleEndian.PutUint32(ram[4:], 99) // count > capacity
	if _, _, err := Decode(ram); err == nil {
		t.Fatal("corrupt count decoded")
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	fresh := c.Ingest([]uint32{1, 2, 3, 2})
	if len(fresh) != 3 || c.Total() != 3 {
		t.Fatalf("fresh %v total %d", fresh, c.Total())
	}
	fresh = c.Ingest([]uint32{3, 4})
	if len(fresh) != 1 || fresh[0] != 4 || c.Total() != 4 {
		t.Fatalf("second ingest %v", fresh)
	}
	if !c.Has(1) || c.Has(99) {
		t.Fatal("Has wrong")
	}
}

func TestEdgeDistribution(t *testing.T) {
	// Edges for distinct (prev, cur) pairs should rarely collide.
	seen := map[uint32]bool{}
	collisions := 0
	for p := uint64(0); p < 64; p++ {
		for c := uint64(0); c < 64; c++ {
			e := Edge(0x08000000+p*4, 0x08000000+c*4)
			if seen[e] {
				collisions++
			}
			seen[e] = true
		}
	}
	if collisions > 8 {
		t.Fatalf("%d collisions in 4096 edges", collisions)
	}
}

func TestEdgeOrderSensitive(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := uint64(a)|1, uint64(b)|2
		if x == y {
			return true
		}
		return Edge(x, y) != Edge(y, x) || x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorConcurrentIngest hammers one collector from several
// goroutines — the fleet's shared-sink usage — and relies on the race
// detector to catch unsynchronised access. The final set must be the union
// regardless of interleaving.
func TestCollectorConcurrentIngest(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				// Half shared across workers, half unique to this one.
				c.Ingest([]uint32{uint32(i), uint32(10_000 + w*1000 + i)})
				c.AddLost(1)
				c.Has(uint32(i))
				c.Total()
			}
		}(w)
	}
	wg.Wait()
	if got, want := c.Total(), 200+workers*200; got != want {
		t.Fatalf("union size %d, want %d", got, want)
	}
	if c.Lost != workers*200 {
		t.Fatalf("lost %d, want %d", c.Lost, workers*200)
	}
	edges := c.Edges()
	if len(edges) != c.Total() {
		t.Fatalf("Edges() length %d != Total() %d", len(edges), c.Total())
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1] >= edges[i] {
			t.Fatal("Edges() not sorted ascending")
		}
	}
}

// TestResetMatchesFresh checks that Reset leaves a used runtime (filtered,
// trapped full, mid edge chain) behaving exactly like NewRuntime over an
// equal slab: the same buffer bytes and the same traps at every PC of one
// stream. With capacity 0 the first edge traps, the one place a kept full
// latch would show.
func TestResetMatchesFresh(t *testing.T) {
	for _, capacity := range []int{0, 1, 8, 64} {
		used, ram := newRT(capacity)
		used.SetFilter(func(pc uint64) bool { return pc%3 != 0 })
		rnd := rand.New(rand.NewSource(int64(capacity)))
		pc := func() uint64 { return 0x1000 + uint64(rnd.Intn(24))*4 }
		trapped := false
		for i := 0; i < 10_000 && !trapped; i++ {
			trapped = used.TracePC(pc())
		}
		if !trapped {
			t.Fatalf("capacity %d: buffer never filled", capacity)
		}
		used.TracePC(pc()) // counted as lost

		freshRAM := bytes.Clone(ram)
		fresh := NewRuntime(freshRAM, capacity)
		used.Reset()
		if !bytes.Equal(ram, freshRAM) {
			t.Fatalf("capacity %d: slab after Reset differs from NewRuntime's", capacity)
		}
		for step := 0; step < 2000; step++ {
			switch rnd.Intn(50) {
			case 0:
				used.ResetEpoch()
				fresh.ResetEpoch()
			case 1: // the host drains the buffer
				binary.LittleEndian.PutUint32(ram[4:], 0)
				binary.LittleEndian.PutUint32(freshRAM[4:], 0)
				used.SyncFromRAM()
				fresh.SyncFromRAM()
			}
			p := pc()
			if got, want := used.TracePC(p), fresh.TracePC(p); got != want {
				t.Fatalf("capacity %d step %d: trap %v after Reset, %v fresh", capacity, step, got, want)
			}
			if !bytes.Equal(ram, freshRAM) {
				t.Fatalf("capacity %d step %d: buffer after Reset differs from a fresh runtime's", capacity, step)
			}
		}
	}
}
