package serve

import (
	"math/rand"

	"cronus/internal/sim"
)

// This file is the serving plane's load generator — the front of the one
// intake both planes share (admission.go holds the rest: submit, request
// identity, accounting). Arrivals are open-loop: per-tenant arrival processes
// are driven by seeded math/rand streams, every stream's seed is a pure
// function of Config.Seed and the tenant index, and every decision consumes
// the stream in a fixed order (gap, class, gap, …), so a config offers the
// identical timeline on the executed and the flow-model plane by
// construction. The planes part only after a request is admitted, at the
// enqueue that ends submit.

// tenantSeed derives the RNG seed for one tenant's arrival stream.
func tenantSeed(base int64, ti int) int64 {
	return base + int64(ti)*1_000_003
}

// pickClass samples the tenant's workload mix by cumulative weight.
func (t *tenant) pickClass(rng *rand.Rand) *workClass {
	total := t.classes[len(t.classes)-1].cum
	u := rng.Float64() * total
	for _, cl := range t.classes {
		if u < cl.cum {
			return cl
		}
	}
	return t.classes[len(t.classes)-1]
}

// startLoad arms the arrival process of every tenant. Generation stops at
// srv.endAt; in-flight requests drain after.
func (srv *Server) startLoad(start sim.Time) {
	for _, t := range srv.tenants {
		srv.armOpenLoop(start, t)
	}
}

// armOpenLoop schedules the tenant's Poisson or fixed-rate arrivals as a
// CallAt chain: each arrival event submits one request and arms the next.
// Both callbacks are bound once here and carry the chain's state (the RNG
// stream and the next instant), so an arrival allocates nothing of its own.
// Rates at or below zero generate nothing; the gap that lands at or past
// endAt is discarded without submitting. Shed requests are dropped on the
// floor — an open-loop source does not retry (that is what the shed-rate
// metric measures).
func (srv *Server) armOpenLoop(start sim.Time, t *tenant) {
	rate := t.spec.Rate
	if rate <= 0 {
		return
	}
	rng := rand.New(rand.NewSource(tenantSeed(srv.cfg.Seed, t.idx)))
	next := start
	var arrive func()
	arm := func() {
		var gap sim.Duration
		if t.spec.Arrival == FixedRate {
			gap = sim.Duration(1e9 / rate)
		} else {
			gap = sim.Duration(rng.ExpFloat64() / rate * 1e9)
		}
		if gap < 1 {
			gap = 1
		}
		next += sim.Time(gap)
		srv.anchor.CallAt(next, arrive)
	}
	arrive = func() {
		if next >= srv.endAt {
			return
		}
		_, _ = srv.submit(next, t, t.pickClass(rng))
		arm()
	}
	arm()
}
