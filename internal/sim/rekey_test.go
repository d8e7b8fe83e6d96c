package sim

import (
	"math"
	"math/rand"
	"testing"
)

// psOracle is PSEngine as it was before jobs had a Rescheduler: every arrival
// and departure resumes every other job, which settles, recomputes its finish
// and sleeps again. It is the reference the re-keying engine must reproduce
// key for key.
type psOracle struct {
	k        *Kernel
	capacity float64
	jobs     []*oracleJob
	last     Time
}

type oracleJob struct {
	p         *Proc
	demand    float64
	remaining float64
}

func (e *psOracle) factor() float64 {
	total := 0.0
	for _, j := range e.jobs {
		total += j.demand
	}
	if total <= e.capacity {
		return 1
	}
	return e.capacity / total
}

func (e *psOracle) settle(now Time) {
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

func (e *psOracle) reproject(except *oracleJob) {
	for _, j := range e.jobs {
		if j != except {
			e.k.wake(j.p)
		}
	}
}

func (e *psOracle) Run(p *Proc, demand float64, work Duration) {
	if work <= 0 {
		return
	}
	if demand <= 0 {
		demand = 1
	}
	if demand > e.capacity {
		demand = e.capacity
	}
	j := &oracleJob{p: p, demand: demand, remaining: float64(work)}
	e.settle(p.Now())
	e.jobs = append(e.jobs, j)
	e.reproject(j)
	defer func() {
		e.settle(p.Now())
		for i, other := range e.jobs {
			if other == j {
				e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
				break
			}
		}
		e.reproject(nil)
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

// psSchedule is one run of tenants sharing an engine: each tenant runs its
// jobs in turn — a gap, then a job — and a kill cuts a tenant down at an
// instant, mid-job or not.
type psSchedule struct {
	capacity float64
	tenants  [][]psStep
	kills    []psKill
}

type psStep struct {
	gap    Duration
	demand float64
	work   Duration
}

type psKill struct {
	tenant int
	at     Time
}

// decodePSSchedule turns bytes into a schedule: byte 0 picks a capacity of 1
// to 8 units and byte 1 one to four tenants; every following group of four
// bytes is a job (tenant, gap of 0-7 ns, demand of 1-6 units, work of
// 1-48 ns) or, one time in eight, a kill (tenant, instant 0-255 ns). Small
// gaps and works make many events share an instant, where a drift in the
// keys would show first. At most 48 groups are read.
func decodePSSchedule(b []byte) psSchedule {
	if len(b) < 2 {
		b = append(b, 0, 0)
	}
	s := psSchedule{capacity: float64(1 + b[0]%8)}
	s.tenants = make([][]psStep, 1+b[1]%4)
	b = b[2:]
	for n := 0; len(b) >= 4 && n < 48; n, b = n+1, b[4:] {
		t := int(b[0]>>3) % len(s.tenants)
		if b[0]%8 == 7 {
			s.kills = append(s.kills, psKill{tenant: t, at: Time(b[1])})
			continue
		}
		s.tenants[t] = append(s.tenants[t], psStep{
			gap:    Duration(b[1] % 8),
			demand: float64(1 + b[2]%6),
			work:   Duration(1 + b[3]%48),
		})
	}
	return s
}

// psTrace is what a schedule produced: every dispatched event key in order,
// every job's completion instant per tenant, and how often the tenants ran.
type psTrace struct {
	keys    []psKey
	done    [][]Time
	resumes uint64
}

type psKey struct {
	t    Time
	band uint8
	seq  uint64
}

// runPSSchedule runs s on an engine made by mk and records its trace.
func runPSSchedule(t testing.TB, s psSchedule, mk func(k *Kernel, capacity float64) interface {
	Run(p *Proc, demand float64, work Duration)
}) psTrace {
	k := NewKernel()
	defer k.Shutdown()
	var tr psTrace
	k.probe = func(at Time, band uint8, seq uint64) {
		tr.keys = append(tr.keys, psKey{at, band, seq})
	}
	e := mk(k, s.capacity)
	tr.done = make([][]Time, len(s.tenants))
	procs := make([]*Proc, len(s.tenants))
	for i, steps := range s.tenants {
		procs[i] = k.Spawn("tenant", func(p *Proc) {
			for _, st := range steps {
				p.Sleep(st.gap)
				e.Run(p, st.demand, st.work)
				tr.done[i] = append(tr.done[i], p.Now())
			}
		})
	}
	for _, kl := range s.kills {
		k.Spawn("killer", func(p *Proc) {
			p.Sleep(Duration(kl.at))
			k.Kill(procs[kl.tenant])
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("schedule %+v: %v", s, err)
	}
	for _, p := range procs {
		tr.resumes += p.Resumes()
	}
	return tr
}

func newPSEngine(k *Kernel, capacity float64) interface {
	Run(p *Proc, demand float64, work Duration)
} {
	return NewPSEngine(k, "gpu", capacity)
}

func newPSOracle(k *Kernel, capacity float64) interface {
	Run(p *Proc, demand float64, work Duration)
} {
	return &psOracle{k: k, capacity: capacity}
}

// checkPSRekey runs s on both engines and reports any difference in the
// dispatched keys or the completion instants. It returns both resume counts.
func checkPSRekey(t testing.TB, s psSchedule) (got, want psTrace) {
	got, want = runPSSchedule(t, s, newPSEngine), runPSSchedule(t, s, newPSOracle)
	if len(got.keys) != len(want.keys) {
		t.Errorf("schedule %+v: %d events dispatched, the waking engine dispatches %d", s, len(got.keys), len(want.keys))
	}
	for i := range got.keys {
		if i < len(want.keys) && got.keys[i] != want.keys[i] {
			g, w := got.keys[i], want.keys[i]
			t.Errorf("schedule %+v: event %d is %+v, the waking engine's is %+v", s, i, g, w)
			break
		}
	}
	for i := range got.done {
		if len(got.done[i]) != len(want.done[i]) {
			t.Errorf("schedule %+v: tenant %d finished %v, the waking engine %v", s, i, got.done[i], want.done[i])
			continue
		}
		for j := range got.done[i] {
			if got.done[i][j] != want.done[i][j] {
				t.Errorf("schedule %+v: tenant %d finished %v, the waking engine %v", s, i, got.done[i], want.done[i])
				break
			}
		}
	}
	if got.resumes > want.resumes {
		t.Errorf("schedule %+v: tenants resumed %d times, more than the waking engine's %d", s, got.resumes, want.resumes)
	}
	return got, want
}

// TestPSEngineRekeyMatchesWakingEngine: a job's Rescheduler answers the wakes
// of arrivals and departures in the kernel, and the engine must still be the
// one that resumed every job for them. Sixty-four seeded schedules — capacity
// 1-8 against demands 1-6, so the engine runs both under- and
// oversubscribed, tenants running job after job, kills landing mid-job — go
// through both engines, and each must dispatch the same event keys, in the
// same order, and finish every job at the same instant. The re-keyed wakes
// must also have saved resumes overall, or the comparison proved nothing.
func TestPSEngineRekeyMatchesWakingEngine(t *testing.T) {
	var got, want uint64
	kills := 0
	for seed := int64(0); seed < 64; seed++ {
		b := make([]byte, 2+4*40)
		rand.New(rand.NewSource(seed)).Read(b)
		s := decodePSSchedule(b)
		kills += len(s.kills)
		g, w := checkPSRekey(t, s)
		got, want = got+g.resumes, want+w.resumes
	}
	if kills == 0 {
		t.Error("no schedule kills a tenant")
	}
	if got >= want {
		t.Errorf("tenants resumed %d times, the waking engine %d: no wake was re-keyed", got, want)
	}
	t.Logf("tenant resumes: %d re-keying, %d waking", got, want)
}

// FuzzPSEngineRekey is the same comparison over schedules the fuzzer writes.
func FuzzPSEngineRekey(f *testing.F) {
	f.Add([]byte{0, 0})
	for _, seed := range []int64{1, 2, 3} {
		b := make([]byte, 2+4*24)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	// Two tenants oversubscribing one unit with a 48 ns job each; the
	// second is killed at 30 ns, and the first speeds back up.
	f.Add([]byte{0, 1, 0, 0, 5, 47, 8, 0, 5, 47, 15, 30, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkPSRekey(t, decodePSSchedule(b))
	})
}
