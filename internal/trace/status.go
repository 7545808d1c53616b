package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Status is the live consumer behind `-status-every`: it prints a one-line
// summary of a Fold whenever the configured host interval has elapsed.
// Attached alone it is a Sink that folds the stream itself (mutex-guarded,
// because every shard emits into it); beside the metrics server it prints
// from the metrics sink's fold instead, so the campaign keeps one live fold.
// Either way it sees events as they happen, so the operator sees progress
// while a fleet epoch is still running; its output is host-time paced and
// therefore not part of the deterministic trace.
type Status struct {
	mu    sync.Mutex
	fold  Fold // folded by Emit
	w     io.Writer
	every time.Duration
	now   func() time.Time // injectable for tests
	next  time.Time

	lastExecs   int
	lastEmExecs int
	lastAt      time.Duration
}

// NewStatus builds a status sink printing to w every host interval (values
// below a second still print at most once per event).
func NewStatus(w io.Writer, every time.Duration) *Status {
	if every <= 0 {
		every = 10 * time.Second
	}
	return &Status{fold: NewFold(-1), w: w, every: every, now: time.Now}
}

// SetEmulStart tells the sink where the emulation tier begins (the first
// emulation shard's physical index) so the status line can break execs/s down
// per tier and show the confirmation-queue depth. Call before the campaign
// starts; a negative value (the default) keeps the untiered line.
func (s *Status) SetEmulStart(start int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold = NewFold(start)
}

// Emit folds ev and prints when the interval is due.
func (s *Status) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fold.Apply(ev)
	s.Observe(&s.fold)
}

// Observe prints a line from f when the interval is due. Calls must not
// overlap: Emit and the metrics sink each make them under the mutex that
// guards their fold.
func (s *Status) Observe(f *Fold) {
	now := s.now()
	if s.next.IsZero() {
		s.next = now.Add(s.every)
		return
	}
	if now.Before(s.next) {
		return
	}
	s.next = now.Add(s.every)
	s.print(f)
}

// print renders one status line from f.
func (s *Status) print(f *Fold) {
	rate := 0.0
	dt := (f.VirtualEnd - s.lastAt).Seconds()
	if dt > 0 {
		rate = float64(f.Execs-s.lastExecs) / dt
	}
	tiers := ""
	if f.EmulStart >= 0 {
		hwRate, emulRate := 0.0, 0.0
		if dt > 0 {
			emulRate = float64(f.EmExecs-s.lastEmExecs) / dt
			hwRate = rate - emulRate
		}
		tiers = fmt.Sprintf(" hw=%.1f/s emul=%.1f/s confirmq=%d", hwRate, emulRate, f.ConfirmQueueDepth())
	}
	restorePct := 0.0
	if f.Execs > 0 {
		restorePct = 100 * float64(f.Restores) / float64(f.Execs)
	}
	link := "ok"
	if f.LinkFaults > 0 || f.LinkRetries > 0 || f.LinkReconnects > 0 {
		link = fmt.Sprintf("%d faults, %d retries, %d reconnects", f.LinkFaults, f.LinkRetries, f.LinkReconnects)
	}
	health := ""
	if f.Quarantines > 0 {
		health = fmt.Sprintf(" quarantined=%d", f.Quarantines)
	}
	if f.Triaged > 0 {
		health += fmt.Sprintf(" triaged=%d", f.Triaged)
	}
	fmt.Fprintf(s.w, "[eof] t=%v execs=%d (%.1f/s)%s edges=%d restores=%d (%.1f%%/exec) bugs=%d%s link: %s\n",
		f.VirtualEnd.Round(time.Second), f.Execs, rate, tiers, f.Edges, f.Restores, restorePct, f.Bugs, health, link)
	s.lastExecs = f.Execs
	s.lastEmExecs = f.EmExecs
	s.lastAt = f.VirtualEnd
}
