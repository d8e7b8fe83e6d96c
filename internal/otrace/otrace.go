// Package otrace builds end-to-end causal observability on top of the raw
// trace.Collector event spine: deterministic per-request trace ids, named
// latency stages whose attributions are conservative by construction, a
// critical-path analyzer with per-tenant attribution tables and p99-outlier
// exemplars, and a bounded per-partition flight recorder.
//
// Everything here is virtual-time only. Trace ids derive from the tenant
// name and the tenant-local admission sequence — never from wall clock — and
// stage segments are cut from ordered in-request marks, so two identical
// seeded runs produce byte-identical traces, tables and exports.
package otrace

import (
	"fmt"
	"sort"

	"cronus/internal/sim"
)

// Stage names one portion of a request's end-to-end latency. Stages are
// exclusive and ordered in virtual time: a request is in exactly one stage
// at any instant between admission and completion, which is what makes the
// attribution conservative (stage durations sum to the latency exactly).
type Stage string

// The serving-plane stage taxonomy, in the order a fault-free request moves
// through it. Faulted requests revisit stages (retry loops re-enter
// StageExec, failover re-enters StageQueue via StageRequeue).
const (
	// StageQueue: admitted, waiting in the tenant queue for a dispatcher.
	StageQueue Stage = "queue"
	// StageBatch: popped by the dispatcher; batch formation and placement.
	StageBatch Stage = "batch"
	// StageReplica: placed, waiting behind earlier batches on the replica.
	StageReplica Stage = "replica-queue"
	// StageExec: one execution attempt — sRPC transfer, mOS dispatch,
	// device launch and sync.
	StageExec Stage = "execute"
	// StageBackoff: between attempts after a watchdog timeout.
	StageBackoff Stage = "retry-backoff"
	// StageRequeue: pushed back to the head of the tenant queue by
	// failover, waiting to be re-dispatched.
	StageRequeue Stage = "requeue"
)

// StageOrder is the canonical presentation order for attribution tables.
var StageOrder = []Stage{StageQueue, StageBatch, StageReplica, StageExec, StageBackoff, StageRequeue}

// DeriveTraceID computes the deterministic trace id for the seq'th admitted
// request of a tenant: an FNV-1a hash of the tenant name finalized with a
// splitmix64-style mix of the sequence number. No wall clock, no randomness
// — identical runs mint identical ids — and the mixing keeps ids from
// adjacent sequence numbers far apart so truncated ids stay distinguishable
// in reports. The result is never 0 (0 means "untraced" everywhere).
func DeriveTraceID(tenant string, seq uint64) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= fnvPrime
	}
	z := h + seq*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Mark is one stage-entry boundary inside a request's lifetime.
type Mark struct {
	Stage Stage
	At    sim.Time
}

// Segment is one attributed slice of a request's latency.
type Segment struct {
	Stage Stage
	From  sim.Time
	To    sim.Time
}

// Dur returns the segment's virtual-time length.
func (s Segment) Dur() sim.Duration { return sim.Duration(s.To - s.From) }

// RequestTrace is the per-request causal record the serving plane emits at
// completion: identity, outcome, and the conservative stage decomposition of
// its end-to-end latency.
type RequestTrace struct {
	TraceID uint64
	Tenant  string
	Class   string
	Arrived sim.Time
	Done    sim.Time
	// Failed is true when the request completed with an error (timeout,
	// pool quarantine); its latency still decomposes into stages.
	Failed bool
	// Retries counts watchdog-triggered re-executions.
	Retries uint32
	// Replays counts failover requeues.
	Replays  uint32
	Segments []Segment
}

// Latency returns the request's end-to-end virtual-time latency.
func (rt *RequestTrace) Latency() sim.Duration { return sim.Duration(rt.Done - rt.Arrived) }

// Validate checks the conservative-attribution contract: segments are
// contiguous, non-negative, start at Arrived and end at Done — so their
// durations sum to Latency exactly.
func (rt *RequestTrace) Validate() error {
	if len(rt.Segments) == 0 {
		return fmt.Errorf("trace %#x: no segments", rt.TraceID)
	}
	if got := rt.Segments[0].From; got != rt.Arrived {
		return fmt.Errorf("trace %#x: first segment starts at %v, arrived %v", rt.TraceID, got, rt.Arrived)
	}
	for i, s := range rt.Segments {
		if s.To < s.From {
			return fmt.Errorf("trace %#x: segment %d (%s) has negative duration", rt.TraceID, i, s.Stage)
		}
		if i > 0 && s.From != rt.Segments[i-1].To {
			return fmt.Errorf("trace %#x: gap between segment %d and %d", rt.TraceID, i-1, i)
		}
	}
	if got := rt.Segments[len(rt.Segments)-1].To; got != rt.Done {
		return fmt.Errorf("trace %#x: last segment ends at %v, done %v", rt.TraceID, got, rt.Done)
	}
	var sum sim.Duration
	for _, s := range rt.Segments {
		sum += s.Dur()
	}
	if sum != rt.Latency() {
		return fmt.Errorf("trace %#x: segments sum to %v, latency %v", rt.TraceID, sum, rt.Latency())
	}
	return nil
}

// SegmentsFromMarks cuts the conservative stage decomposition from a
// request's ordered stage-entry marks: each mark opens its stage until the
// next mark (the last until done). Zero-length slices are dropped; adjacent
// slices of the same stage merge. The result always covers [arrived, done]
// with no gaps, so durations sum to the latency by construction.
func SegmentsFromMarks(arrived, done sim.Time, marks []Mark) []Segment {
	segs := make([]Segment, 0, len(marks))
	push := func(st Stage, from, to sim.Time) {
		if to <= from {
			return
		}
		if n := len(segs); n > 0 && segs[n-1].Stage == st && segs[n-1].To == from {
			segs[n-1].To = to
			return
		}
		segs = append(segs, Segment{Stage: st, From: from, To: to})
	}
	prev := Mark{Stage: StageQueue, At: arrived}
	for _, m := range marks {
		push(prev.Stage, prev.At, m.At)
		prev = m
	}
	push(prev.Stage, prev.At, done)
	if len(segs) == 0 {
		// Zero-latency request: one empty segment keeps the contract
		// (covers [arrived, done] trivially).
		segs = append(segs, Segment{Stage: prev.Stage, From: arrived, To: done})
	}
	return segs
}

// sortTraces orders traces deterministically for presentation: by tenant,
// then by arrival, then by trace id.
func sortTraces(ts []RequestTrace) []RequestTrace {
	out := make([]RequestTrace, len(ts))
	copy(out, ts)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		if out[i].Arrived != out[j].Arrived {
			return out[i].Arrived < out[j].Arrived
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}
