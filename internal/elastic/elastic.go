// Package elastic is the serving plane's elastic-capacity layer: a
// load-driven autoscaler control loop and the planned live-migration state
// machine (DESIGN.md §23). The package itself is pure policy — deterministic
// decision logic over signals the serving plane already collects (queue
// depth, shed rate) — while the mechanism
// (quiescing lanes, checkpointing mEnclaves, fabric transfer, exactly-once
// replay) lives in internal/serve, which consumes these types.
//
// The autoscaler has real dynamics on purpose: capacity changes are not
// free. Scaling a partition up charges mOS boot plus re-attestation cost in
// virtual time before the capacity is usable, and scaling down rides the
// migration primitive (drain, checkpoint, transfer, replay, release) plus a
// scrub of the vacated partition. The loop can therefore lag, overshoot and
// oscillate like a real controller, and the chaos harness drives it through
// a forced oscillation (scale-storm) to prove the serving invariants hold
// under rapid capacity change.
package elastic

import (
	"fmt"

	"cronus/internal/sim"
)

// Signals is one control-loop sample of the serving plane's load state.
// Every field is a deterministic function of virtual time, so the decisions
// derived from it replay byte-identically.
type Signals struct {
	// QueueDepth is the total number of requests inside the plane (queued,
	// batched, backlogged or in flight) across all tenants.
	QueueDepth int
	// ShedRate is the cumulative shed/offered ratio across all tenants.
	ShedRate float64
}

// Action is one control-loop decision.
type Action int

const (
	// Hold keeps the current capacity.
	Hold Action = iota
	// ScaleUp re-activates a released partition (boot + attest charged
	// before the capacity is usable).
	ScaleUp
	// ScaleDown migrates a partition's load away and releases it.
	ScaleDown
)

// String renders the action for event logs.
func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	}
	return "hold"
}

// The capacity-change costs and the loop's fixed hysteresis. A scaled-up
// partition is usable only after BootCost + AttestCost of virtual time; a
// scale-down releases a partition and then scrubs it for ScrubCost before the
// capacity could ever be handed elsewhere; a migration checkpoints
// EnclaveStateBytes of mEnclave state per tenant on top of the staging
// arenas; scale-down never leaves a node with fewer than MinActive
// partitions; and cooldown is the minimum virtual time between two capacity
// actions — the hysteresis that damps oscillation.
const (
	BootCost          = 200 * sim.Microsecond
	AttestCost        = 50 * sim.Microsecond
	ScrubCost         = 100 * sim.Microsecond
	EnclaveStateBytes = 256 << 10
	MinActive         = 1
	cooldown          = sim.Millisecond
)

// Config tunes the autoscaler controller's tick and watermarks. The zero
// value of a field selects its documented default; LowDepth < 0 disables
// scale-down entirely (the inert configuration chaos baselines use, so an
// armed-but-idle controller never perturbs the run).
type Config struct {
	// Interval is the control-loop tick (default 250µs).
	Interval sim.Duration
	// HighDepth is the queue-depth watermark above which the loop scales up
	// (default 96).
	HighDepth int
	// LowDepth is the queue-depth watermark at or below which the loop may
	// scale down (default 8; negative disables scale-down).
	LowDepth int
	// HighShed is the shed-rate watermark above which the loop scales up
	// (default 0.05).
	HighShed float64
}

// Defaults fills unset fields with the documented defaults.
func (c *Config) Defaults() {
	if c.Interval <= 0 {
		c.Interval = 250 * sim.Microsecond
	}
	if c.HighDepth <= 0 {
		c.HighDepth = 96
	}
	if c.LowDepth == 0 {
		c.LowDepth = 8
	}
	if c.HighShed <= 0 {
		c.HighShed = 0.05
	}
}

// storm is one forced-oscillation window (the scale-storm chaos kind).
type storm struct {
	from, until sim.Time
}

// Controller is the autoscaler decision core: pure hysteresis logic over
// Signals samples, plus forced-oscillation windows for the chaos harness.
// It holds no serving-plane state, so it is unit-testable in isolation.
type Controller struct {
	cfg      Config
	lastAct  sim.Time
	acted    bool
	storms   []storm
	flipDown bool
}

// NewController builds a controller with defaults applied.
func NewController(cfg Config) *Controller {
	cfg.Defaults()
	return &Controller{cfg: cfg}
}

// Config returns the defaulted configuration the controller runs with.
func (c *Controller) Config() Config { return c.cfg }

// AddStorm arms one forced-oscillation window: every Decide tick inside
// [from, until) alternates ScaleDown/ScaleUp regardless of the signals,
// bypassing the cooldown — the scale-storm chaos kind.
func (c *Controller) AddStorm(from, until sim.Time) {
	c.storms = append(c.storms, storm{from: from, until: until})
}

// StormActive reports whether a forced-oscillation window covers now.
func (c *Controller) StormActive(now sim.Time) bool {
	for _, s := range c.storms {
		if now >= s.from && now < s.until {
			return true
		}
	}
	return false
}

// Decide evaluates one control tick: scale up when any high watermark is
// breached, scale down when the plane is comfortably idle, hold otherwise.
// Both actions are gated by the cooldown. Inside a storm window the decision
// alternates down/up every tick, cooldown ignored.
func (c *Controller) Decide(now sim.Time, s Signals) Action {
	if c.StormActive(now) {
		c.flipDown = !c.flipDown
		if c.flipDown {
			return c.record(now, ScaleDown)
		}
		return c.record(now, ScaleUp)
	}
	up := s.QueueDepth > c.cfg.HighDepth || s.ShedRate > c.cfg.HighShed
	down := !up && c.cfg.LowDepth >= 0 &&
		s.QueueDepth <= c.cfg.LowDepth && s.ShedRate <= c.cfg.HighShed/2
	act := Hold
	switch {
	case up:
		act = ScaleUp
	case down:
		act = ScaleDown
	}
	if act != Hold && c.acted && sim.Duration(now-c.lastAct) < cooldown {
		act = Hold // hysteresis: too soon after the last capacity change
	}
	return c.record(now, act)
}

// record starts the cooldown clock at every capacity action.
func (c *Controller) record(now sim.Time, act Action) Action {
	if act != Hold {
		c.lastAct = now
		c.acted = true
	}
	return act
}

// Endpoint names one (node, partition) slot of the serving pool — the source
// or destination of a migration. Node is 0 on a single-node plane.
type Endpoint struct {
	Node int
	Part int
}

// String renders the endpoint in the serving plane's partition namespace.
func (e Endpoint) String() string {
	return fmt.Sprintf("n%d/gpu-part%d", e.Node, e.Part)
}
