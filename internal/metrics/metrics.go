// Package metrics is the virtual-time metrics registry of the CRONUS
// reproduction: counters, gauges and fixed log-scale histograms that every
// subsystem (sim kernel, SPM, sRPC, mOS, device drivers, attestation) records
// into under a common name vocabulary.
//
// The registry is deliberately wall-clock free: every recorded value is either
// a plain count or a virtual-time quantity in nanoseconds (int64), so two
// identical simulation runs produce byte-identical snapshots. Like the trace
// collector, recording is disabled by default and each hook costs one atomic
// load and a branch — and allocates nothing — when off.
//
// Instruments are registered once (typically in package-level vars) and the
// returned handles are used on hot paths; all operations are safe under the
// race detector. Snapshot serializes the full registry to deterministic JSON
// (sorted keys) or a text table.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// histBuckets is the fixed log-scale bucket count: bucket i holds values whose
// bit length is i, i.e. the ranges [0], [1], [2,3], [4,7], ... so the upper
// bound of bucket i is 2^i - 1.
const histBuckets = 65

// Registry owns a namespace of instruments. The zero value is not usable; use
// NewRegistry (or the package-level Default).
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// Default is the process-wide registry all built-in instrumentation records
// into.
var Default = NewRegistry()

// NewRegistry creates an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Enable turns on recording. Previously recorded values are kept; call Reset
// to zero them.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable stops recording. Registered instruments and their values remain
// readable.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Enabled reports whether instruments are recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset zeroes every instrument's value. Registrations (and the handles held
// by instrumented code) stay valid.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
		g.max.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Counter registers (or returns the existing) monotonically increasing
// counter under name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{r: r}
	r.counters[name] = c
	return c
}

// Gauge registers (or returns the existing) gauge under name. A gauge tracks
// both the last value set and the maximum ever set (high-water mark).
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{r: r}
	r.gauges[name] = g
	return g
}

// Histogram registers (or returns the existing) log-scale histogram under
// name. By convention, names of histograms holding virtual-time durations end
// in "_ns".
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{r: r}
	h.min.Store(math.MaxInt64)
	r.hists[name] = h
	return h
}

// Counter is a monotonically increasing count. A nil Counter is a valid no-op.
type Counter struct {
	r *Registry
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. When the registry is disabled this is one atomic load and a
// branch, with no allocation.
func (c *Counter) Add(n uint64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value with a high-water mark. A nil Gauge is a
// valid no-op.
type Gauge struct {
	r   *Registry
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value (and raises the high-water mark).
func (g *Gauge) Set(v int64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Histogram accumulates samples into fixed power-of-two buckets: no
// wall-clock, no dynamic bucket layout, so identical runs fill identical
// buckets. A nil Histogram is a valid no-op.
type Histogram struct {
	r       *Registry
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// Observe records one sample. Negative samples are clamped to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil || !h.r.enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// value copies the histogram's current state into its serialized form (the
// same shape Snapshot produces).
func (h *Histogram) value() HistValue {
	hv := HistValue{Count: h.count.Load(), Sum: h.sum.Load()}
	if hv.Count > 0 {
		hv.Min = h.min.Load()
		hv.Max = h.max.Load()
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(math.MaxUint64)
		if i < 64 {
			le = 1<<uint(i) - 1
		}
		hv.Buckets = append(hv.Buckets, HistBucket{Le: le, Count: n})
	}
	return hv
}

// Quantile estimates the q-quantile of the recorded samples (see
// HistValue.Quantile). A nil or empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.value().Quantile(q)
}

func (h *Histogram) reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(0)
}

// GaugeValue is the serialized form of a gauge.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistBucket is one non-empty histogram bucket: Count samples were <= Le.
type HistBucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistValue is the serialized form of a histogram. Min and Max are zero when
// the histogram is empty.
type HistValue struct {
	Count   uint64       `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// bucketLo returns the inclusive lower bound of the bucket whose upper
// bound is le: buckets hold values by bit length, so bucket [0], [1],
// [2,3], [4,7], ...
func bucketLo(le uint64) float64 {
	if le == 0 {
		return 0
	}
	return float64(le/2 + 1)
}

// Quantile estimates the q-quantile (q in [0,1], clamped) of the recorded
// samples: it walks the cumulative bucket counts to the bucket containing
// the target rank, interpolates linearly inside that bucket's value range,
// and clamps the estimate to the observed min/max so single-bucket and
// extreme quantiles stay exact at the boundaries. An empty histogram
// reports 0.
func (h HistValue) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(h.Count))
	cum := float64(0)
	clamp := func(v float64) float64 {
		if v < float64(h.Min) {
			return float64(h.Min)
		}
		if v > float64(h.Max) {
			return float64(h.Max)
		}
		return v
	}
	for i, b := range h.Buckets {
		n := float64(b.Count)
		if cum+n >= rank || i == len(h.Buckets)-1 {
			lo, hi := bucketLo(b.Le), float64(b.Le)
			pos := (rank - cum) / n
			if pos < 0 {
				pos = 0
			}
			if pos > 1 {
				pos = 1
			}
			return clamp(lo + float64(pos*(hi-lo)))
		}
		cum += n
	}
	return float64(h.Max)
}

// Mean returns the average sample (0 when empty).
func (h HistValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every registered instrument. Maps
// marshal with sorted keys, so WriteJSON output is deterministic.
type Snapshot struct {
	Counters   map[string]uint64     `json:"counters"`
	Gauges     map[string]GaugeValue `json:"gauges"`
	Histograms map[string]HistValue  `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]GaugeValue, len(r.gauges)),
		Histograms: make(map[string]HistValue, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeValue{Value: g.v.Load(), Max: g.max.Load()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.value()
	}
	return s
}

// WriteJSON emits the snapshot as indented, deterministically ordered JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	_, err = w.Write(out)
	return err
}

// CounterDelta returns the growth of a counter since an earlier snapshot.
func (s *Snapshot) CounterDelta(before *Snapshot, name string) uint64 {
	v := s.Counters[name]
	if before != nil {
		v -= before.Counters[name]
	}
	return v
}

// Summary renders a terse one-line digest.
func (s *Snapshot) Summary() string {
	nonZero := 0
	for _, v := range s.Counters {
		if v != 0 {
			nonZero++
		}
	}
	samples := uint64(0)
	for _, h := range s.Histograms {
		samples += h.Count
	}
	return fmt.Sprintf("%d metrics (%d counters active, %d histogram samples)",
		len(s.Counters)+len(s.Gauges)+len(s.Histograms), nonZero, samples)
}

// fmtNS renders a virtual-time nanosecond quantity for humans.
func fmtNS(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fus", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

// String renders the snapshot as a text table: non-zero counters and gauges
// plus every histogram (histograms appear even when empty, so the reader sees
// what was measured). Values of names ending in "_ns" are shown as durations.
func (s *Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n, v := range s.Counters {
		if v != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("  counters:\n")
		for _, n := range names {
			b.WriteString(fmt.Sprintf("    %-34s %12d\n", n, s.Counters[n]))
		}
	}
	names = names[:0]
	for n, g := range s.Gauges {
		if g.Value != 0 || g.Max != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("  gauges:\n")
		for _, n := range names {
			g := s.Gauges[n]
			b.WriteString(fmt.Sprintf("    %-34s %12d  (max %d)\n", n, g.Value, g.Max))
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("  histograms:\n")
		for _, n := range names {
			h := s.Histograms[n]
			if h.Count == 0 {
				b.WriteString(fmt.Sprintf("    %-34s (no samples)\n", n))
				continue
			}
			if strings.HasSuffix(n, "_ns") {
				b.WriteString(fmt.Sprintf("    %-34s n=%d mean=%s min=%s max=%s\n",
					n, h.Count, fmtNS(h.Mean()), fmtNS(float64(h.Min)), fmtNS(float64(h.Max))))
			} else {
				b.WriteString(fmt.Sprintf("    %-34s n=%d mean=%.1f min=%d max=%d\n",
					n, h.Count, h.Mean(), h.Min, h.Max))
			}
		}
	}
	if b.Len() == 0 {
		return "  (no metrics recorded)\n"
	}
	return b.String()
}
