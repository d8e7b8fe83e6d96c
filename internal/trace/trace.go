// Package trace is an opt-in event tracer for the simulation: components
// record spans and instants in virtual time, and the collector writes the
// Chrome trace-event JSON format, so a CRONUS run can be inspected on a
// timeline (chrome://tracing, Perfetto).
//
// A collector belongs to the sim.Kernel it is attached to (Attach), and every
// hook reaches it through the kernel or process it already holds (Of). A
// kernel with none attached records nothing: Of returns nil, every method of
// a nil *Collector is a no-op, and a hook costs a few loads and a branch and
// allocates nothing. One kernel runs one process at a time, so a collector
// needs no lock, and two traced kernels on two goroutines record side by
// side. Recorded events are bounded by MaxEvents so long runs cannot
// grow without limit; events dropped at the cap are counted (Dropped), so a
// truncated trace is never silent.
//
// Causal linkage: every event can carry a TraceID (the request it belongs
// to), a SpanID and a Parent span. Span and Instant read the current span
// context off the recording process (sim.Proc.TraceCtx), so existing
// instrumentation joins the causal tree with no signature changes; BeginSpan
// additionally pushes the new span as the process's current context so nested
// spans chain correctly. Span ids are minted from the collector's own
// sequence — because the sim kernel schedules deterministically, the minted
// ids (and therefore the whole export) are byte-identical across identical
// seeded runs. The flow map (PutFlow/TakeFlow) carries a span context across
// an sRPC ring from the pushing client proc to the consuming executor proc,
// modelling the trace-context field a real RPC header would carry without
// perturbing the simulated ring layout or its virtual-time costs.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"cronus/internal/sim"
)

// MaxEvents bounds the events a collector retains.
const MaxEvents = 1 << 20

// Event is one recorded trace event.
type Event struct {
	Name  string
	Cat   string
	Track string // rendered as the "thread" lane
	Start sim.Time
	Dur   sim.Duration // 0 for instants
	Args  map[string]string

	// TraceID ties the event to one causal request tree (0: unlinked).
	TraceID uint64
	// SpanID identifies this span inside its trace (0 for instants and
	// unlinked spans).
	SpanID uint64
	// Parent is the SpanID of the enclosing span (0: root).
	Parent uint64
}

// SpanCtx is a position in a causal span tree: the trace it belongs to and
// the span that is current there.
type SpanCtx struct {
	// Trace is the request's TraceID.
	Trace uint64
	// Span is the current span's id.
	Span uint64
}

// flowKey addresses one record on one sRPC stream.
type flowKey struct{ stream, slot uint64 }

// Collector gathers the events of the kernel it is attached to. The zero
// value is an empty collector with the default event cap; a nil *Collector
// records nothing.
type Collector struct {
	spanSeq uint64
	events  []Event
	max     int // > 0: a lower cap, set only by tests (export_test.go)
	dropped uint64
	tap     func(Event)
	flow    map[flowKey]SpanCtx
}

// Attach makes c the collector k's hooks record into, the kernel's own
// spawn and kill instants included. Attach before the platform boots so the
// export covers it; a nil c leaves the kernel untraced.
func Attach(k *sim.Kernel, c *Collector) {
	if c != nil {
		k.SetTracer(c)
	}
}

// Of returns the collector attached to k, or nil when the kernel is
// untraced — a nil *Collector's methods record nothing.
func Of(k *sim.Kernel) *Collector {
	c, _ := k.Tracer().(*Collector)
	return c
}

// noop is the span terminator returned while untraced; a shared value keeps
// that path allocation-free.
var noop = func() {}

// SetTap installs an observer called for every event recorded — the flight
// recorder's feed. The tap sees events even once the storage cap is hit and
// events are being dropped, so a bounded recorder keeps observing the most
// recent activity exactly when a long run overflows the collector. The tap
// must not call back into the collector.
func (c *Collector) SetTap(fn func(Event)) { c.tap = fn }

// Len returns the number of recorded events.
func (c *Collector) Len() int { return len(c.events) }

// Dropped returns how many events were discarded because the cap was hit.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Events returns a copy of the recorded events, in recording order.
func (c *Collector) Events() []Event { return append([]Event(nil), c.events...) }

// NextSpanID mints a fresh span id. Minting order follows the kernel's
// deterministic schedule, so ids are stable across identical runs.
func (c *Collector) NextSpanID() uint64 {
	c.spanSeq++
	return c.spanSeq
}

// add appends one event, honoring the cap. Callers check for nil first.
func (c *Collector) add(e Event) {
	if c.tap != nil {
		c.tap(e)
	}
	if len(c.events) >= MaxEvents || c.max > 0 && len(c.events) >= c.max {
		c.dropped++
		return
	}
	c.events = append(c.events, e)
}

// SchedInstant records a scheduler instant of the kernel c is attached to
// ("spawn main", "kill spm-recover-gpu-part0"): sim.Tracer's one method.
func (c *Collector) SchedInstant(at sim.Time, kind, name string) {
	if c == nil {
		return
	}
	c.add(Event{Name: kind + " " + name, Cat: "sim", Track: "scheduler", Start: at})
}

// Instant records a zero-duration event at the current virtual time. It
// inherits the recording process's span context, so instants land inside the
// span that was current when they fired.
func (c *Collector) Instant(p *sim.Proc, cat, track, name string, args map[string]string) {
	if c == nil {
		return
	}
	tid, parent := p.TraceCtx()
	c.add(Event{Name: name, Cat: cat, Track: track, Start: p.Now(), Args: args,
		TraceID: tid, Parent: parent})
}

// InstantAt records a zero-duration event at an explicit virtual time (for
// callers without a process context).
func (c *Collector) InstantAt(at sim.Time, cat, track, name string, args map[string]string) {
	if c == nil {
		return
	}
	c.add(Event{Name: name, Cat: cat, Track: track, Start: at, Args: args})
}

// Span starts a span and returns the closure that ends it:
//
//	defer trace.Of(p.Kernel()).Span(p, "srpc", "stream-1", "sync-wait")()
//
// The span links into the recording process's current span context (trace id
// and parent) but does not become the current context itself — use BeginSpan
// when nested hooks should chain under it.
func (c *Collector) Span(p *sim.Proc, cat, track, name string) func() {
	if c == nil {
		return noop
	}
	start := p.Now()
	tid, parent := p.TraceCtx()
	var sid uint64
	if tid != 0 {
		sid = c.NextSpanID()
	}
	return func() {
		c.add(Event{
			Name: name, Cat: cat, Track: track,
			Start: start, Dur: sim.Duration(p.Now() - start),
			TraceID: tid, SpanID: sid, Parent: parent,
		})
	}
}

// BeginSpan starts a span that becomes the process's current span context:
// hooks that fire while it is open link under it. The returned closure
// records the span and restores the previous context. Use StartSpan to root
// the context at an explicit trace instead of the inherited one.
func (c *Collector) BeginSpan(p *sim.Proc, cat, track, name string) func() {
	if c == nil {
		return noop
	}
	tid, parent := p.TraceCtx()
	return c.startAt(p, cat, track, name, tid, parent)
}

// StartSpan begins a span rooted at an explicit trace and parent span,
// making it the process's current span context until the returned closure
// runs (which records the span and restores the previous context). It is the
// entry point for work executing on behalf of a request whose context is not
// already on the process — e.g. a replica worker picking up a placed batch.
func (c *Collector) StartSpan(p *sim.Proc, cat, track, name string, ctx SpanCtx) func() {
	if c == nil {
		return noop
	}
	return c.startAt(p, cat, track, name, ctx.Trace, ctx.Span)
}

// startAt is the shared body of BeginSpan/StartSpan: mint, push, and return
// the restoring closure. Callers check for nil first.
func (c *Collector) startAt(p *sim.Proc, cat, track, name string, tid, parent uint64) func() {
	start := p.Now()
	var sid uint64
	if tid != 0 {
		sid = c.NextSpanID()
	}
	prevTID, prevSID := p.TraceCtx()
	p.SetTraceCtx(tid, sid)
	return func() {
		p.SetTraceCtx(prevTID, prevSID)
		c.add(Event{
			Name: name, Cat: cat, Track: track,
			Start: start, Dur: sim.Duration(p.Now() - start),
			TraceID: tid, SpanID: sid, Parent: parent,
		})
	}
}

// SpanAt records a completed span between two explicit virtual times (for
// phases whose start predates the recording process, e.g. failover).
func (c *Collector) SpanAt(start, end sim.Time, cat, track, name string, args map[string]string) {
	if c == nil {
		return
	}
	c.add(Event{Name: name, Cat: cat, Track: track, Start: start, Dur: sim.Duration(end - start), Args: args})
}

// SpanAtLinked records a completed span between two explicit virtual times
// with explicit causal linkage — the emission path for request stage
// segments, whose boundaries were marked earlier than they are recorded.
func (c *Collector) SpanAtLinked(start, end sim.Time, cat, track, name string, traceID, spanID, parent uint64) {
	if c == nil {
		return
	}
	c.add(Event{Name: name, Cat: cat, Track: track,
		Start: start, Dur: sim.Duration(end - start),
		TraceID: traceID, SpanID: spanID, Parent: parent})
}

// PutFlow stashes a span context for the record at slot on an sRPC stream,
// to be claimed by the executor that consumes the record (TakeFlow). It
// models the trace-context field of a real RPC header out-of-band, so the
// simulated ring layout and its virtual-time costs are unchanged. Callers
// check for nil first.
func (c *Collector) PutFlow(stream, slot uint64, ctx SpanCtx) {
	if c.flow == nil {
		c.flow = make(map[flowKey]SpanCtx)
	}
	c.flow[flowKey{stream, slot}] = ctx
}

// TakeFlow claims (and removes) the span context stashed for the record at
// slot on an sRPC stream, reporting whether one was present.
func (c *Collector) TakeFlow(stream, slot uint64) (SpanCtx, bool) {
	ctx, ok := c.flow[flowKey{stream, slot}]
	if ok {
		delete(c.flow, flowKey{stream, slot})
	}
	return ctx, ok
}

// chromeEvent is the trace-event JSON schema.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeArgs renders an event's args plus its causal linkage (trace/span/
// parent ids as hex strings) for the JSON export. Map keys marshal sorted,
// so the output stays deterministic.
func chromeArgs(e Event) map[string]string {
	if e.TraceID == 0 {
		return e.Args
	}
	out := make(map[string]string, len(e.Args)+3)
	for k, v := range e.Args {
		out[k] = v
	}
	out["trace"] = "0x" + strconv.FormatUint(e.TraceID, 16)
	if e.SpanID != 0 {
		out["span"] = strconv.FormatUint(e.SpanID, 10)
	}
	if e.Parent != 0 {
		out["parent"] = strconv.FormatUint(e.Parent, 10)
	}
	return out
}

// WriteChromeTrace emits the recorded events as a Chrome trace JSON array,
// with one tid lane per track. The format is the trace-event JSON Perfetto
// ingests directly; causally linked events carry their trace/span/parent ids
// in args.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	events := c.events
	tracks := make(map[string]int)
	var names []string
	for _, e := range events {
		if _, ok := tracks[e.Track]; !ok {
			tracks[e.Track] = 0
			names = append(names, e.Track)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		tracks[n] = i + 1
	}
	out := make([]chromeEvent, 0, len(events)+len(names))
	for _, n := range names {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tracks[n],
			Args: map[string]string{"name": n},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name, Cat: e.Cat, PID: 1, TID: tracks[e.Track],
			TS: float64(e.Start) / 1e3, Args: chromeArgs(e),
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
		} else {
			ce.Ph = "i"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Summary renders a terse text digest (events per category).
func (c *Collector) Summary() string {
	events := c.events
	counts := make(map[string]int)
	for _, e := range events {
		counts[e.Cat]++
	}
	cats := make([]string, 0, len(counts))
	for k := range counts {
		cats = append(cats, k)
	}
	sort.Strings(cats)
	s := fmt.Sprintf("%d trace events:", len(events))
	for _, k := range cats {
		s += fmt.Sprintf(" %s=%d", k, counts[k])
	}
	if d := c.dropped; d > 0 {
		s += fmt.Sprintf(" (%d dropped at cap)", d)
	}
	return s
}
