package sim

import "math"

// PSEngine models a compute engine whose capacity (e.g., GPU streaming
// multiprocessors) is shared among concurrently running jobs, in the style of
// a processor-sharing queue.
//
// A job declares a demand (units it can use, e.g. SMs a kernel's grid fills)
// and a work amount expressed as the ideal duration the job would take if it
// were granted its full demand. While the sum of demands fits within the
// capacity, every job runs at full speed (this is what makes spatial sharing
// profitable); once the engine is oversubscribed, all jobs slow down by the
// ratio capacity/totalDemand (hardware time-multiplexing).
//
// This reproduces the shape of CRONUS Figure 11a: two half-sized tenants on
// one GPU run almost fully in parallel, while four tenants contend.
type PSEngine struct {
	k        *Kernel
	name     string
	capacity float64
	jobs     []*psJob // insertion order: keeps same-timestamp wakes deterministic
	last     Time     // time of the last settle
	// free holds the jobs of finished runs for the next ones: a job leaves
	// it when a Run starts and returns when that Run's deferred exit has
	// taken it out of jobs, so no job is ever in both or in two runs.
	free []*psJob
}

type psJob struct {
	p         *Proc
	demand    float64
	remaining float64 // ideal nanoseconds of work left
}

// NewPSEngine creates a processor-sharing engine with the given capacity.
func NewPSEngine(k *Kernel, name string, capacity float64) *PSEngine {
	if capacity <= 0 {
		panic("sim: PSEngine capacity must be positive")
	}
	return &PSEngine{k: k, name: name, capacity: capacity}
}

// Capacity returns the configured capacity in demand units.
func (e *PSEngine) Capacity() float64 { return e.capacity }

// Active returns the number of jobs currently executing.
func (e *PSEngine) Active() int { return len(e.jobs) }

// factor is the speed multiplier every active job currently runs at.
func (e *PSEngine) factor() float64 {
	total := 0.0
	for _, j := range e.jobs {
		total += j.demand
	}
	if total <= e.capacity {
		return 1
	}
	return e.capacity / total
}

// settle credits elapsed progress to every active job up to instant now.
func (e *PSEngine) settle(now Time) {
	if now == e.last {
		return
	}
	f := e.factor()
	dt := float64(now - e.last)
	for _, j := range e.jobs {
		j.remaining -= dt * f
	}
	e.last = now
}

// reproject wakes every other active job so it recomputes its finish time
// against the new factor.
func (e *PSEngine) reproject(except *psJob) {
	for _, j := range e.jobs {
		if j != except {
			e.k.wake(j.p)
		}
	}
}

// Run executes a job on the engine, blocking p until the work completes.
// demand is clamped to the engine capacity; work is the ideal duration at
// full demand.
func (e *PSEngine) Run(p *Proc, demand float64, work Duration) {
	if work <= 0 {
		return
	}
	if demand <= 0 {
		demand = 1
	}
	if demand > e.capacity {
		demand = e.capacity
	}
	var j *psJob
	if n := len(e.free); n > 0 {
		j, e.free = e.free[n-1], e.free[:n-1]
	} else {
		j = new(psJob)
	}
	*j = psJob{p: p, demand: demand, remaining: float64(work)}
	e.settle(p.Now())
	e.jobs = append(e.jobs, j)
	e.reproject(j)
	defer func() {
		// Runs on normal completion and when the process is killed
		// mid-job (partition failure): the job leaves the engine and
		// survivors speed back up.
		e.settle(p.Now())
		for i, other := range e.jobs {
			if other == j {
				e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
				break
			}
		}
		e.reproject(nil)
		*j = psJob{}
		e.free = append(e.free, j)
	}()
	for {
		e.settle(p.Now())
		if j.remaining <= 0.5 {
			return
		}
		f := e.factor()
		d := Duration(math.Ceil(j.remaining / f))
		p.SleepInterruptible(d)
	}
}

// Drain removes all jobs without waking them; used when a device is reset as
// part of failure recovery (the owning processes are killed separately).
func (e *PSEngine) Drain() {
	e.settle(e.k.now)
	e.jobs = nil
}
