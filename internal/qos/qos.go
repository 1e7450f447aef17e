// Package qos is szd's off-path admission control loop. It follows
// the CCP split: the datapath only measures (per-request latency into
// an obs.EWMA pair, shed counts, in-flight bytes), and this controller
// folds those signals at a fixed cadence into three rate decisions the
// governor reads back — the admission byte budget, the worker clamp,
// and the Retry-After hint attached to sheds.
//
// The fold is AIMD with hysteresis. Additive increase probes for
// headroom only while the budget is actually binding (high utilization
// or active shedding) and latency is healthy; multiplicative decrease
// fires only after a sustained run of congested ticks. The hysteresis
// is what keeps the loop from the oscillation failure mode of naive
// reactive controllers (every node slamming between states on a shared
// signal): a single noisy tick moves nothing, and after a cut the
// controller must observe a clear run before probing again, so under
// steady load the budget parks in a narrow band around the knee
// instead of sawtoothing across it.
package qos

import "time"

// Config bounds and paces the controller. Zero values pick the
// defaults noted on each field.
type Config struct {
	// MinBudget and MaxBudget clamp the adaptive admission budget.
	// InitialBudget is the starting point (default: MaxBudget).
	MinBudget     int64
	MaxBudget     int64
	InitialBudget int64

	// Increase is the additive probe step per clear tick (default:
	// MaxBudget/64, at least 1).
	Increase int64
	// Decrease is the multiplicative cut on sustained congestion, in
	// (0, 1) (default 0.9).
	Decrease float64

	// CongestedTicks is how many consecutive congested ticks arm a
	// cut (default 2). ClearTicks is how many consecutive clear ticks
	// re-arm growth after a cut (default 3).
	CongestedTicks int
	ClearTicks     int

	// LatencyRatio is the fast/slow EWMA ratio that reads as latency
	// climbing (default 1.6).
	LatencyRatio float64

	// MinWorkers and MaxWorkers clamp the adaptive worker grant pool
	// (defaults: 1 and the initial pool size the governor reports).
	MinWorkers int
	MaxWorkers int

	// MinRetryAfter and MaxRetryAfter bound the shed backoff hint
	// (defaults: 250ms and 8s).
	MinRetryAfter time.Duration
	MaxRetryAfter time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxBudget <= 0 {
		c.MaxBudget = 1 << 30
	}
	if c.MinBudget <= 0 {
		c.MinBudget = c.MaxBudget / 8
	}
	if c.MinBudget > c.MaxBudget {
		c.MinBudget = c.MaxBudget
	}
	if c.InitialBudget <= 0 {
		c.InitialBudget = c.MaxBudget
	}
	if c.Increase <= 0 {
		c.Increase = c.MaxBudget / 64
		if c.Increase < 1 {
			c.Increase = 1
		}
	}
	if c.Decrease <= 0 || c.Decrease >= 1 {
		c.Decrease = 0.9
	}
	if c.CongestedTicks <= 0 {
		c.CongestedTicks = 2
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 3
	}
	if c.LatencyRatio <= 1 {
		c.LatencyRatio = 1.6
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.MinRetryAfter <= 0 {
		c.MinRetryAfter = 250 * time.Millisecond
	}
	if c.MaxRetryAfter < c.MinRetryAfter {
		c.MaxRetryAfter = 8 * time.Second
	}
	return c
}

// Signals is one tick's measurement snapshot, gathered by the caller
// from the governor and the obs taps.
type Signals struct {
	// InflightBytes is the admitted-and-unreleased charge right now.
	InflightBytes int64
	// ShedDelta counts budget/share rejections since the last tick.
	ShedDelta int64
	// FastLatency and SlowLatency are the two EWMA reads over request
	// latency, in seconds. Fast well above slow means latency is
	// climbing now; both near zero means no traffic.
	FastLatency float64
	SlowLatency float64
}

// State is the controller's current output, also what /debug/qos and
// the szd_qos_* gauges expose.
type State struct {
	BudgetBytes int64         `json:"budget_bytes"`
	Workers     int           `json:"workers"`
	RetryAfter  time.Duration `json:"-"`
	Congested   bool          `json:"congested"`
	// Ticks, Cuts and Grows count control decisions since boot.
	Ticks int64 `json:"ticks"`
	Cuts  int64 `json:"cuts"`
	Grows int64 `json:"grows"`

	RetryAfterMS int64 `json:"retry_after_ms"`
	// BaselineLatency is the controller's uncongested-latency
	// estimate (seconds): the minimum fast-EWMA read since boot.
	BaselineLatency float64 `json:"baseline_latency_seconds"`
}

// Controller folds Signals into State. Not safe for concurrent use:
// exactly one loop owns it and publishes State to the governor.
type Controller struct {
	cfg   Config
	state State

	baseline    float64
	congStreak  int
	clearStreak int
}

// New returns a controller parked at the configured initial budget
// and the full worker clamp.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg}
	c.state = State{
		BudgetBytes: clamp64(cfg.InitialBudget, cfg.MinBudget, cfg.MaxBudget),
		Workers:     cfg.MaxWorkers,
		RetryAfter:  cfg.MinRetryAfter,
	}
	c.state.RetryAfterMS = c.state.RetryAfter.Milliseconds()
	return c
}

// Config reports the bounds the controller runs under.
func (c *Controller) Config() Config { return c.cfg }

// State returns the last published output.
func (c *Controller) State() State { return c.state }

// congested classifies one tick. Two latency reads feed it: fast
// against the boot-min baseline catches sustained overload (a pure
// fast/slow trend goes blind once both EWMAs meet at the elevated
// level, which would let the budget ratchet up forever), and fast
// against slow catches a climb in progress before the baseline test
// trips. Either one only counts while the budget is at least half
// used — an idle daemon whose workload got inherently slower must not
// cut. Shedding alone does not count: sheds mean the budget is binding,
// and if latency is still healthy the right move is to grow, not to
// cut (cutting on sheds is the downward spiral).
func (c *Controller) congested(s Signals) bool {
	if s.FastLatency > 0 && (c.baseline == 0 || s.FastLatency < c.baseline) {
		c.baseline = s.FastLatency
	}
	c.state.BaselineLatency = c.baseline
	util := 0.0
	if c.state.BudgetBytes > 0 {
		util = float64(s.InflightBytes) / float64(c.state.BudgetBytes)
	}
	overBaseline := c.baseline > 0 && s.FastLatency > c.cfg.LatencyRatio*c.baseline
	latencyClimbing := s.SlowLatency > 0 && s.FastLatency > c.cfg.LatencyRatio*s.SlowLatency
	return (overBaseline || latencyClimbing) && util > 0.5
}

// Tick folds one measurement snapshot and returns the new State.
func (c *Controller) Tick(s Signals) State {
	cfg := c.cfg
	st := &c.state
	st.Ticks++

	if c.congested(s) {
		c.congStreak++
		c.clearStreak = 0
	} else {
		c.clearStreak++
		c.congStreak = 0
	}

	switch {
	case c.congStreak >= cfg.CongestedTicks:
		// Sustained pressure: multiplicative cut, workers down one,
		// backoff hint doubles. Re-arming growth takes ClearTicks.
		st.Congested = true
		cut := int64(float64(st.BudgetBytes) * cfg.Decrease)
		if cut < st.BudgetBytes {
			st.BudgetBytes = clamp64(cut, cfg.MinBudget, cfg.MaxBudget)
			st.Cuts++
		}
		if st.Workers > cfg.MinWorkers {
			st.Workers--
		}
		st.RetryAfter = clampDur(st.RetryAfter*2, cfg.MinRetryAfter, cfg.MaxRetryAfter)
		c.congStreak = 0

	case c.clearStreak >= cfg.ClearTicks:
		// Sustained health: leave the congested regime, decay the
		// backoff hint, restore a worker, and probe the budget upward
		// — but only if it is binding (high utilization or active
		// sheds). An idle daemon holds instead of railing to max just
		// to fall off a cliff when load returns.
		st.Congested = false
		st.RetryAfter = clampDur(st.RetryAfter/2, cfg.MinRetryAfter, cfg.MaxRetryAfter)
		if st.Workers < cfg.MaxWorkers {
			st.Workers++
		}
		util := float64(s.InflightBytes) / float64(st.BudgetBytes)
		if (util > 0.7 || s.ShedDelta > 0) && st.BudgetBytes < cfg.MaxBudget {
			st.BudgetBytes = clamp64(st.BudgetBytes+cfg.Increase, cfg.MinBudget, cfg.MaxBudget)
			st.Grows++
		}
		// Keep clearStreak saturated at the threshold so continued
		// health keeps probing every tick instead of every ClearTicks.
		c.clearStreak = cfg.ClearTicks
	}

	st.RetryAfterMS = st.RetryAfter.Milliseconds()
	return *st
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
