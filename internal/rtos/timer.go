package rtos

import (
	"math"
	"math/bits"
)

// Timer parameter bounds.
const (
	TimerPeriodMin = 1
	TimerPeriodMax = 1 << 20
)

// Timer is a software timer driven by the kernel tick.
type Timer struct {
	Obj      *Object
	Period   uint64
	OneShot  bool
	armed    bool // written only by Start, Stop and the scan
	NextFire uint64
	Fires    uint64
	Behavior int
	k        *Kernel
	idx      int // index in TimerWheel.timers: creation order
}

// TimerWheel holds all software timers and fires them from the tick path.
type TimerWheel struct {
	k      *Kernel
	timers []*Timer
	// started has bit i set from the Start that arms timers[i] until a scan
	// finds it disarmed or deleted and clears the bit. The scan walks the
	// set bits, in creation order, so it skips timers that stay stopped or
	// deleted. Only Start arms a timer, so the set bits cover every live
	// armed one; a scan that unwinds part-way leaves bits set, which still
	// covers them.
	started []uint64
	fnTick  *Fn
	fnCb    *Fn
	// minNext is a lower bound on every live armed timer's NextFire, so a
	// tick below it has no timer to fire and skips the scan. Start lowers it
	// (no callback starts a timer, so none runs inside a scan) and each
	// completed scan recomputes it; a scan that unwinds part-way leaves it
	// at or below the tick it ran on.
	minNext uint64
}

func newTimerWheel(k *Kernel) *TimerWheel {
	w := &TimerWheel{k: k}
	w.fnTick = k.Fn("__timer_wheel_tick", "kern/timer.c", 55, 6)
	w.fnCb = k.Fn("__timer_callback", "kern/timer.c", 130, 5)
	return w
}

// NewTimer validates parameters and creates a (disarmed) timer.
func (k *Kernel) NewTimer(name string, period uint64, oneShot bool, behavior int) (*Object, Errno) {
	if period < TimerPeriodMin || period > TimerPeriodMax {
		return nil, ErrInval
	}
	t := &Timer{
		Period:   period,
		OneShot:  oneShot,
		Behavior: ((behavior % 3) + 3) % 3,
		k:        k,
		idx:      len(k.Timers.timers),
	}
	t.Obj = k.Objects.New(ObjTimer, name, t)
	w := k.Timers
	w.timers = append(w.timers, t)
	if len(w.started)*64 < len(w.timers) {
		w.started = append(w.started, 0)
	}
	return t.Obj, OK
}

// Armed reports whether the timer is armed.
func (t *Timer) Armed() bool { return t.armed }

// Start arms the timer relative to the current tick.
func (t *Timer) Start() Errno {
	if t.armed {
		return ErrBusy
	}
	t.armed = true
	t.NextFire = t.k.Ticks + t.Period
	w := t.k.Timers
	w.minNext = min(w.minNext, t.NextFire)
	w.started[t.idx/64] |= 1 << (t.idx % 64)
	return OK
}

// Stop disarms the timer.
func (t *Timer) Stop() Errno {
	if !t.armed {
		return ErrState
	}
	t.armed = false
	return OK
}

// tick fires due timers.
func (w *TimerWheel) tick() {
	if len(w.timers) == 0 {
		return
	}
	f := w.fnTick
	f.Enter()
	if now := w.k.Ticks; now >= w.minNext {
		next := uint64(math.MaxUint64)
		for wi, word := range w.started {
			for ; word != 0; word &= word - 1 {
				bit := word & -word
				t := w.timers[wi*64+bits.TrailingZeros64(word)]
				if !t.armed || !t.Obj.Alive() {
					w.started[wi] &^= bit
					continue
				}
				if t.NextFire > now {
					next = min(next, t.NextFire)
					continue
				}
				f.B(1)
				t.Fires++
				if t.OneShot {
					f.B(2)
					t.armed = false
					w.started[wi] &^= bit
				} else {
					f.B(3)
					t.NextFire = now + t.Period
					next = min(next, t.NextFire)
				}
				w.fire(t)
			}
		}
		w.minNext = next
	}
	f.Exit()
}

// fire runs the timer callback's synthetic body.
func (w *TimerWheel) fire(t *Timer) {
	f := w.fnCb
	f.Enter()
	switch t.Behavior {
	case 0: // lightweight bookkeeping
		f.B(1)
	case 1: // poke the scheduler's sleepers
		f.B(2)
		for _, task := range w.k.Sched.tasks {
			if task.state == TaskSleeping {
				f.B(3)
				task.WakeTick = w.k.Ticks
				w.k.Sched.minWake = min(w.k.Sched.minWake, task.WakeTick)
				break
			}
		}
	case 2: // heap churn from interrupt-ish context
		if h := w.k.Heap; h != nil {
			f.B(4)
			if p := h.Alloc(8); p != 0 {
				h.Free(p)
			}
		}
	}
	f.Exit()
}
