package core

import (
	"errors"
	"fmt"
	"time"
)

// ErrBoardDead marks permanent board death: the recovery ladder exhausted
// every rung, or the probe reported the hardware gone for good. Fleet
// supervisors match it with errors.Is to quarantine the board and promote a
// spare instead of aborting the campaign.
var ErrBoardDead = errors.New("core: board dead")

// errResumesExhausted is runToMain giving up: the target booted but never
// parked at executor_main within the resume budget. It escalates the ladder
// (the next rung retries from a cleaner state) rather than killing the
// campaign.
var errResumesExhausted = errors.New("core: target never reached executor_main")

// HealthConfig tunes the escalating recovery ladder and the per-board health
// score. The zero value selects the defaults documented per field.
type HealthConfig struct {
	// ResetAttempts, ReflashAttempts and PowerCycleAttempts are the attempt
	// budgets of the three ladder rungs (defaults 1, 1 and 2). The defaults
	// keep a healthy board's restore sequence identical to the classic
	// single-rung restore: reset, then reflash+reset on failure.
	ResetAttempts      int
	ReflashAttempts    int
	PowerCycleAttempts int
	// MaxResumes bounds the resume loop that re-synchronises at
	// executor_main after a boot (default 32); exhaustion escalates the
	// ladder instead of failing the campaign.
	MaxResumes int
	// Decay is the EWMA weight of the newest restore outcome in the health
	// score (default 0.25): score = decay*outcome + (1-decay)*score.
	Decay float64
	// SickThreshold is the score below which a board counts as chronically
	// sick (default 0.3); fleet supervisors quarantine a sick board once a
	// hot spare has booted to replace it.
	SickThreshold float64
}

// WithDefaults fills unset fields with the documented defaults.
func (h HealthConfig) WithDefaults() HealthConfig {
	if h.ResetAttempts <= 0 {
		h.ResetAttempts = 1
	}
	if h.ReflashAttempts <= 0 {
		h.ReflashAttempts = 1
	}
	if h.PowerCycleAttempts <= 0 {
		h.PowerCycleAttempts = 2
	}
	if h.MaxResumes <= 0 {
		h.MaxResumes = 32
	}
	if h.Decay <= 0 || h.Decay > 1 {
		h.Decay = 0.25
	}
	if h.SickThreshold <= 0 {
		h.SickThreshold = 0.3
	}
	return h
}

// Health is one board's accumulated condition record.
type Health struct {
	// Score is an EWMA over restore outcomes in [0, 1], starting at 1: a
	// first-rung success scores 1, deeper rungs score lower (reflash 0.55,
	// power-cycle 0.25) and a failed restore scores 0, so a board that
	// keeps needing the expensive rungs drifts toward sick.
	Score float64
	// Restores, Reflashes and PowerCycles count recovery actions taken on
	// this board; Escalations counts ladder climbs past a failed rung.
	Restores    int
	Reflashes   int
	PowerCycles int
	Escalations int
	// ConsecutiveEscalations counts back-to-back restores that needed more
	// than the first rung; a plain reset success resets it.
	ConsecutiveEscalations int
	// Dead marks permanent hardware death.
	Dead bool
}

// Sick reports whether the board is dead or its score fell below threshold.
func (h Health) Sick(threshold float64) bool { return h.Dead || h.Score < threshold }

func (h Health) String() string {
	state := "ok"
	if h.Dead {
		state = "dead"
	}
	return fmt.Sprintf("score=%.2f (%s) restores=%d reflashes=%d power-cycles=%d escalations=%d",
		h.Score, state, h.Restores, h.Reflashes, h.PowerCycles, h.Escalations)
}

// The recovery ladder's rungs, cheapest first.
const (
	rungReset = iota
	rungReflash
	rungPowerCycle
	numRungs
)

var rungNames = [numRungs]string{"reset", "reflash", "power-cycle"}

// rungOutcome is the health-score contribution of a restore satisfied at the
// given rung.
var rungOutcome = [numRungs]float64{1.0, 0.55, 0.25}

// noteRestoreOutcome folds one restore's outcome into the EWMA health score.
func (e *Engine) noteRestoreOutcome(rung int, err error) {
	outcome := 0.0
	if err == nil {
		outcome = rungOutcome[rung]
	}
	d := e.cfg.Health.Decay
	e.health.Score = d*outcome + (1-d)*e.health.Score
	if err != nil || rung > 0 {
		e.health.ConsecutiveEscalations++
	} else {
		e.health.ConsecutiveEscalations = 0
	}
}

// Quarantine records one board the fleet supervisor removed from the pool.
type Quarantine struct {
	// Slot is the shard slot the board was serving; Board is its physical
	// pool index (spares start at Shards).
	Slot  int
	Board int
	// Spare is the physical index of the promoted replacement, or -1 when
	// the spare pool was empty and the slot went unmanned.
	Spare int
	// Reason is "dead" (permanent hardware death) or "sick" (health score
	// below the configured threshold).
	Reason string
	// At is the pool wall-clock time of the quarantine (an epoch barrier).
	At time.Duration
	// Health is the board's final health record.
	Health Health
	// Tier is the tier the board served ("" or "hw" for the hardware pool,
	// "emul" for an emulation explore shard; emulation shards have no spares,
	// so their Spare is always -1).
	Tier string
}
