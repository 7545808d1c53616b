package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The benchmark host shares its cores with other tenants, and its speed
// drifts by tens of percent within minutes: the same campaign's CPU time
// does too. Host-time metrics are therefore reported in calibrated seconds.
// Every campaign is preceded by a fixed CPU-bound loop, and a run's host
// times are scaled by calibRef over the median time of its loops, so they
// read as if the loop had taken exactly calibRef. The loop is the
// benchmark's own code, so no change to the fuzzer can move it.
const calibRef = 10 * time.Millisecond

// calibRAM is the loop's working set, the order of a board model's RAM.
var (
	calibOnce sync.Once
	calibRAM  []uint32
	calibMap  map[uint32]uint32
)

// calibrate runs the loop on a locked thread and returns that thread's CPU
// time for it. Like the simulator's inner loop it mixes dependent table
// loads and stores, map lookups and unpredictable branches, and it does not
// allocate, so garbage collector settings cannot move it.
func calibrate() time.Duration {
	calibOnce.Do(func() {
		calibRAM = make([]uint32, 1<<19)
		calibMap = make(map[uint32]uint32, 4096)
		for i := uint32(0); i < 4096; i++ {
			calibMap[i*2654435761] = i
		}
	})
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadCPU()
	x, acc := uint32(2463534242), uint32(0)
	mask := uint32(len(calibRAM) - 1)
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		calibRAM[j] += x
		if v, ok := calibMap[(x&4095)*2654435761]; ok && v&1 == 0 {
			acc += v
		}
		if x&7 == 0 {
			acc ^= calibRAM[(j+acc)&mask]
		}
	}
	calibSink = acc
	return threadCPU() - t0
}

var calibSink uint32

// threadCPU returns the CPU time of the calling OS thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		panic(err) // RUSAGE_THREAD with a valid pointer cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not name.
const rusageThread = 1
