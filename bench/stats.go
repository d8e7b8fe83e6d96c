package main

import (
	"math"
	"sort"
)

// minBeyond is the tail-support rule: a percentile is only reported when at
// least this many samples lie strictly beyond it.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of an ascending-sorted sample
// and the number of samples strictly beyond the chosen rank. It is exact: no
// interpolation, no buckets — the value is one of the samples.
func quantile(sorted []int64, q float64) (v int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return sorted[idx], n - 1 - idx
}

// tailQuantile is quantile plus the "at least ten samples beyond" rule.
func tailQuantile(sorted []int64, q float64) (v int64, beyond int, ok bool) {
	v, beyond = quantile(sorted, q)
	return v, beyond, beyond >= minBeyond
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// median of a float sample (mean of the two middle values when even).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), which is how the spread of a metric over repeated runs
// is judged against its bound. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// Capacity search. The ladder is fixed so two commits probe the same rates
// until they bracket the knee; only the bisection inside the bracket depends
// on the answers.
const (
	ladderBase     = 20000.0 // per-tenant requests per virtual second at rung 0
	ladderMaxRungs = 40
	bisectTol      = 0.01
)

// ladderRate is rung k of the fixed ladder: base·2^(k/4).
func ladderRate(k int) float64 { return ladderBase * math.Pow(2, float64(k)/4) }

// searchCapacity returns the highest per-tenant rate for which ok holds,
// assuming ok is monotone (true below the knee, false above): climb the fixed
// ladder to the first failing rung, then bisect the bracket to bisectTol. A
// failing rung 0 yields 0; a ladder that never fails yields its top rung.
func searchCapacity(ok func(rate float64) bool) (capacity float64, probes int) {
	lo, hi := 0.0, 0.0
	for k := 0; k < ladderMaxRungs; k++ {
		r := ladderRate(k)
		probes++
		if !ok(r) {
			hi = r
			break
		}
		lo = r
	}
	if hi == 0 || lo == 0 {
		return lo, probes
	}
	for (hi-lo)/lo > bisectTol {
		mid := (lo + hi) / 2
		probes++
		if ok(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}

// reqTimes is the part of a request record the recovery derivation needs.
type reqTimes struct{ arrived, done int64 }

// recoveryNS is the time from a fault instant to the completion of the last
// request that was in flight at that instant (arrived < fault <= done), and
// how many such requests there were. Zero in-flight requests mean nothing had
// to recover: 0.
func recoveryNS(reqs []reqTimes, fault int64) (ns int64, inflight int) {
	for _, r := range reqs {
		if r.arrived < fault && fault <= r.done {
			inflight++
			if d := r.done - fault; d > ns {
				ns = d
			}
		}
	}
	return ns, inflight
}
