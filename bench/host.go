package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"time"
)

// hostSample is one timed section on the host clock.
type hostSample struct {
	ns      int64
	mallocs uint64
	bytes   uint64
	ops     uint64
}

// calNominalNS is how long one calibration burst takes on the reference box
// (2 vCPU, Xeon 2.1 GHz, go1.24) in its usual state, frozen at the seed
// commit. Host-clock times are reported scaled by calNominalNS over the
// run's own median burst, i.e. in reference-box nanoseconds.
const calNominalNS = 4.4e6

var calSink uint32

// calibrate times a fixed burst of work that touches none of the repository's
// code: goroutine hand-offs over unbuffered channels, checksumming, and page
// copies - the three things the simulator spends host time on. The box this
// benchmark runs on shifts speed by 10-25% for minutes at a time (README,
// "Steadiness"); the burst rides the same shifts, so scaling by it takes
// them out of the reported host times.
func calibrate() float64 {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	buf := make([]byte, 64<<10)
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	start := time.Now()
	for i := 0; i < 6000; i++ {
		ping <- i
		<-pong
	}
	for i := 0; i < 100; i++ {
		calSink += crc32.ChecksumIEEE(buf)
	}
	for i := 0; i < 16; i++ {
		copy(dst, src)
	}
	ns := float64(time.Since(start).Nanoseconds())
	close(ping)
	return ns
}

// measure times f and charges it the heap allocations made while it ran. f
// returns the number of ops it completed. The collector runs first so every
// sample starts from the same heap state; both MemStats reads sit outside
// the timed interval.
func measure(f func() (uint64, error)) (hostSample, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops, err := f()
	ns := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(&after)
	return hostSample{
		ns:      ns,
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		ops:     ops,
	}, err
}

// measureCalibrated is measure bracketed by calibration bursts, for the timed
// sections whose times are reported end to end.
func (e *env) measureCalibrated(f func() (uint64, error)) (hostSample, error) {
	e.cals = append(e.cals, calibrate())
	s, err := measure(f)
	e.cals = append(e.cals, calibrate())
	return s, err
}

// speedFactor is what a raw host time is multiplied by to express it in
// reference-box nanoseconds: nominal burst time over this run's median burst.
func (e *env) speedFactor() float64 {
	if len(e.cals) == 0 {
		return 1
	}
	return calNominalNS / median(e.cals)
}

// loopNS times n calls of f in one batch and returns host ns per call.
func loopNS(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// layerBatches is how many batches a layer loop runs; the median is kept.
const layerBatches = 5

// medianLoopNS is the layer-budget measurement: one untimed warm-up batch,
// then the median of layerBatches timed batches of n calls each.
func medianLoopNS(n int, f func()) float64 {
	loopNS(n/4+1, f)
	xs := make([]float64, layerBatches)
	for i := range xs {
		xs[i] = loopNS(n, f)
	}
	return median(xs)
}

// check is one output check. A failed check makes the run incorrect.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// result is everything one run of one workload reports.
type result struct {
	Workload  string
	Traced    bool
	Attempted uint64
	Failed    uint64
	Metrics   map[string]float64
	// Samples keeps the per-repeat values behind each host-clock median, so
	// -selfcheck can print the spread the bounds were set against.
	Samples map[string][]float64
	Checks  []check
	Notes   []string
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// setMedian records a host-clock metric as the median of its samples.
func (r *result) setMedian(name string, samples []float64) {
	r.Samples[name] = samples
	r.set(name, median(samples))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// expect records an output check.
func (r *result) expect(ok bool, name, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every output check held.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// env is what a workload is handed: the seed its inputs derive from, how
// long to keep the timed section going, and where to record.
type env struct {
	seed       int64
	seconds    float64
	minRepeats int     // 0 = the workload's own minimum
	tr         *tracer // nil on the untraced run
	res        *result
	cals       []float64 // calibration bursts, ns each
}

// minSlices is the fewest timed slices a sliced workload measures. Slices
// are short (a quarter second) so that a run holds many of them: the median
// over slices shrugs off the bursts of interference that last a slice or
// two, and every slice boots afresh, which gives setup_s as many samples.
const minSlices = 40

// tracePairs is how many untraced/traced slice pairs the traced run
// interleaves to size the tracing overhead; each side keeps its fastest.
const tracePairs = 8

// slices runs timed slices until both the minimum count and the requested
// measuring time are met.
func (e *env) slices(one func(i int) (hostSample, error)) ([]hostSample, error) {
	min := minSlices
	if e.minRepeats > 0 {
		min = e.minRepeats
	}
	var out []hostSample
	var spent int64
	for i := 0; i < min || float64(spent) < e.seconds*1e9; i++ {
		s, err := one(i)
		if err != nil {
			return out, err
		}
		out = append(out, s)
		spent += s.ns
	}
	return out, nil
}

// setHostMetrics folds timed slices into the three per-op host metrics, each
// the median over slices.
func (r *result) setHostMetrics(samples []hostSample) {
	var ns, allocs, bytes []float64
	for _, s := range samples {
		if s.ops == 0 {
			continue
		}
		ops := float64(s.ops)
		ns = append(ns, float64(s.ns)/ops)
		allocs = append(allocs, float64(s.mallocs)/ops)
		bytes = append(bytes, float64(s.bytes)/ops)
	}
	r.setMedian("host_ns_per_op", ns)
	r.setMedian("host_allocs_per_op", allocs)
	r.setMedian("host_bytes_per_op", bytes)
	r.note("host metrics: median of %d timed slices; host_ns_per_op slices spread %.1f%%", len(ns), 100*spread(ns))
}

// setSetup records setup_s as the median over every boot the run performed.
func (r *result) setSetup(boots []time.Duration) {
	secs := make([]float64, len(boots))
	for i, d := range boots {
		secs[i] = d.Seconds()
	}
	r.setMedian("setup_s", secs)
	r.note("setup_s: median of %d boots", len(boots))
}
