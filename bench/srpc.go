package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// The srpc_calls trace: four call shapes at two payload classes, one phase
// each. A small phase issues smallPerLarge times the
// calls of a large one, so the two classes take comparable host time and a
// change to per-call overhead is not drowned by 64 KiB copies.
const (
	smallPayload  = 256
	largePayload  = 64 << 10 // the default ring's whole data area: wraps and backpressures
	largeCalls    = 175      // calls per large phase; sized for a quarter second per slice
	smallPerLarge = 8
	warmScale     = 25 // the warm-up trace is the timed one cut to 1/warmScale
)

var srpcShapes = []string{"htod", "dtoh", "execzc", "sealed"}

// srpcPhase is one phase of the trace: a call shape, and each call's size.
type srpcPhase struct {
	shape string
	base  int
	sizes []int
	data  []byte // payload source, base bytes
}

// srpcTrace derives the call trace from the seed: every call's payload size
// (the upper eighth of its class) and the payload bytes. The phase order is
// fixed - it moves host time by several percent, which would read as noise
// across seeds.
func srpcTrace(seed int64, scale int) []srpcPhase {
	rng := rand.New(rand.NewSource(seed))
	var phases []srpcPhase
	for _, base := range []int{smallPayload, largePayload} {
		n := largeCalls / scale
		if base == smallPayload {
			n *= smallPerLarge
		}
		for _, shape := range srpcShapes {
			ph := srpcPhase{shape: shape, base: base, sizes: make([]int, n), data: make([]byte, base)}
			for i := range ph.sizes {
				ph.sizes[i] = base - rng.Intn(base/8)
			}
			rng.Read(ph.data)
			phases = append(phases, ph)
		}
	}
	return phases
}

// srpcSlice is one booted platform driven through the trace once.
type srpcSlice struct {
	setup    time.Duration
	timed    hostSample
	virtual  sim.Duration // virtual time of the timed trace
	errors   uint64       // calls that returned an error or a wrong answer
	counters map[string]uint64
}

// srpcOnce boots a platform, opens one CUDA stream, warms it with a
// shortened trace and then times the full one.
func srpcOnce(e *env, tr *tracer) (*srpcSlice, error) {
	rep := &srpcSlice{}
	warm, full := srpcTrace(e.seed, warmScale), srpcTrace(e.seed, 1)
	t0 := time.Now()
	err := runKernel(func(p *sim.Proc) error {
		var sess *core.Session
		var conn *core.CUDAConn
		err := tr.in("boot", func() error {
			pl, err := core.BuildPlatform(p, core.DefaultConfig())
			if err != nil {
				return err
			}
			if sess, err = pl.NewSession(p, "bench"); err != nil {
				return err
			}
			if err = sess.Attest(p, 1); err != nil {
				return err
			}
			conn, err = sess.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("scale"), ZCPayload: largePayload})
			return err
		})
		if err != nil {
			return err
		}
		buf, err := conn.MemAlloc(p, largePayload)
		if err != nil {
			return err
		}
		scratch, err := conn.MemAlloc(p, 64)
		if err != nil {
			return err
		}
		rep.setup = time.Since(t0)

		d := &srpcDriver{p: p, sess: sess, conn: conn, buf: buf, scratch: scratch, mirror: make([]byte, largePayload)}
		if err := conn.HtoD(p, buf, d.mirror); err != nil {
			return err
		}
		if _, err := d.play(nil, warm); err != nil {
			return err
		}
		d.errors = 0

		v0 := p.Now()
		tr.begin("trace")
		rep.timed, err = e.measureCalibrated(func() (uint64, error) { return d.play(tr, full) })
		rep.counters = tr.end()
		rep.virtual = sim.Duration(p.Now() - v0)
		rep.errors = d.errors
		if err != nil {
			return err
		}
		return conn.Close(p)
	})
	if err != nil {
		return nil, fmt.Errorf("srpc run: %w", err)
	}
	return rep, nil
}

// srpcDriver issues the trace and checks every answer against a host-side
// mirror of the device buffer.
type srpcDriver struct {
	p       *sim.Proc
	sess    *core.Session
	conn    *core.CUDAConn
	buf     uint64 // device buffer the data calls target
	scratch uint64 // device word the fused launches scale (by 1)
	mirror  []byte // what buf must hold
	errors  uint64
	zcDone  int
}

// play runs every phase and returns the number of calls made.
func (d *srpcDriver) play(tr *tracer, phases []srpcPhase) (uint64, error) {
	var calls uint64
	for _, ph := range phases {
		name := fmt.Sprintf("%s/%dB", ph.shape, ph.base)
		err := tr.in(name, func() error { return d.phase(ph) })
		if err != nil {
			return calls, fmt.Errorf("%s: %w", name, err)
		}
		calls += uint64(len(ph.sizes))
	}
	return calls, nil
}

func (d *srpcDriver) phase(ph srpcPhase) error {
	p, conn := d.p, d.conn
	d.zcDone = 0
	for _, sz := range ph.sizes {
		payload := ph.data[:sz]
		switch ph.shape {
		case "htod": // streamed: returns once the record is in the ring
			if err := conn.HtoD(p, d.buf, payload); err != nil {
				return err
			}
			copy(d.mirror, payload)
		case "dtoh": // synchronous: waits for the result
			out, err := conn.DtoH(p, d.buf, sz)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, d.mirror[:sz]) {
				d.errors++
			}
		case "execzc": // fused zero-copy copy + launch, completion by callback
			err := conn.ExecZC(p, d.buf, payload, "scale", gpu.Dim{1, 1, 1},
				func(_ *sim.Proc, err error) {
					if err != nil {
						d.errors++
					}
					d.zcDone++
				}, d.scratch, uint64(gpu.FloatBits(1)))
			if err != nil {
				return err
			}
			copy(d.mirror, payload)
		case "sealed": // lock-step sealed RPC over untrusted memory
			out, err := d.sess.Ping(p, payload)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, payload) {
				d.errors++
			}
		}
	}
	// Drain the stream so the phase's virtual time includes its own work
	// and the next phase starts from an empty ring.
	if err := conn.Sync(p); err != nil {
		return err
	}
	switch ph.shape {
	case "execzc":
		if d.zcDone != len(ph.sizes) {
			d.errors += uint64(len(ph.sizes) - d.zcDone)
		}
	case "htod": // what streamed in must read back
		out, err := conn.DtoH(p, d.buf, ph.base)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, d.mirror[:ph.base]) {
			d.errors++
		}
	}
	return nil
}

// runSrpcCalls is the srpc_calls workload: op = one mECall on an
// established CUDA stream.
func runSrpcCalls(e *env) error {
	res := e.res
	var reps []*srpcSlice
	one := func(tr *tracer) (hostSample, error) {
		rep, err := srpcOnce(e, tr)
		if err != nil {
			return hostSample{}, err
		}
		reps = append(reps, rep)
		res.Attempted += rep.timed.ops
		res.Failed += rep.errors
		return rep.timed, nil
	}

	if e.tr == nil {
		samples, err := e.slices(func(int) (hostSample, error) { return one(nil) })
		if err != nil {
			return err
		}
		res.setHostMetrics(samples)
	} else {
		// Untraced and traced slices, interleaved; each side is scored by
		// its fastest slice.
		var plain, traced hostSample
		for i := 0; i < tracePairs; i++ {
			metrics.Default.Disable()
			a, err := one(nil)
			if err != nil {
				return err
			}
			metrics.Default.Enable()
			b, err := one(e.tr)
			if err != nil {
				return err
			}
			if i == 0 || a.ns < plain.ns {
				plain = a
			}
			if i == 0 || b.ns < traced.ns {
				traced = b
			}
		}
		res.set("trace.overhead_frac", float64(traced.ns)/float64(plain.ns)-1)
		setLayerCounts(res, reps[1].counters, traced)
	}

	var setups []time.Duration
	same := true
	for _, r := range reps {
		setups = append(setups, r.setup)
		same = same && r.virtual == reps[0].virtual && r.timed.ops == reps[0].timed.ops
	}
	res.setSetup(setups)
	if e.tr == nil {
		res.set("virt_ns_per_op", float64(reps[0].virtual)/float64(reps[0].timed.ops))
	}
	res.expect(res.Failed == 0, "every mECall answered correctly", "%d of %d calls wrong", res.Failed, res.Attempted)
	res.expect(same && len(reps) >= 2, "virtual metrics repeat exactly in-process",
		"%d slices, %v virtual for %d calls", len(reps), reps[0].virtual, reps[0].timed.ops)
	return nil
}
