package experiments

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/metrics"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/wire"
)

// SRPCMicroRow is one RPC-mechanism measurement. MECalls and Bytes are read
// back from the metrics registry (snapshot deltas around each phase) rather
// than counted by the benchmark loop, so the table reports what the transport
// actually did.
type SRPCMicroRow struct {
	Mechanism string
	Calls     int
	Payload   int
	Total     sim.Duration
	PerCall   sim.Duration
	MECalls   uint64 // mECalls observed by the transport during the phase
	Bytes     uint64 // bytes through trusted shared memory during the phase
}

// SRPCMicro measures the cost of issuing n back-to-back mECalls under the
// three inter-enclave RPC mechanisms the paper discusses (§II-C, §IV-C):
// streaming sRPC (asynchronous, trusted shared memory), synchronous sRPC
// (each call waits for its result), and lock-step sealed RPC over untrusted
// memory (the synchronous approach).
func SRPCMicro(calls, payload int) ([]SRPCMicroRow, error) {
	if calls <= 0 {
		calls = 200
	}
	if payload <= 0 {
		payload = 256
	}
	var rows []SRPCMicroRow
	data := make([]byte, payload)

	// Deltas need a recording registry; restore the caller's choice after.
	wasEnabled := metrics.Default.Enabled()
	metrics.Default.Enable()
	defer func() {
		if !wasEnabled {
			metrics.Default.Disable()
		}
	}()

	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		s, err := pl.NewSession(p, "micro")
		if err != nil {
			return err
		}
		conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), RingPages: 65})
		if err != nil {
			return err
		}
		defer conn.Close(p)
		ptr, err := conn.MemAlloc(p, uint64(payload))
		if err != nil {
			return err
		}

		// ① Streaming (async) sRPC.
		pre := metrics.Default.Snapshot()
		start := p.Now()
		for i := 0; i < calls; i++ {
			if err := conn.HtoD(p, ptr, data); err != nil {
				return err
			}
		}
		if err := conn.Sync(p); err != nil {
			return err
		}
		total := sim.Duration(p.Now() - start)
		post := metrics.Default.Snapshot()
		rows = append(rows, SRPCMicroRow{
			Mechanism: "sRPC streaming", Calls: calls, Payload: payload,
			Total: total, PerCall: total / sim.Duration(calls),
			MECalls: post.CounterDelta(pre, "srpc.calls"),
			Bytes:   post.CounterDelta(pre, "srpc.bytes_moved"),
		})

		// ② Synchronous sRPC (wait for each result).
		pre = metrics.Default.Snapshot()
		start = p.Now()
		for i := 0; i < calls; i++ {
			if _, err := conn.DtoH(p, ptr, payload); err != nil {
				return err
			}
		}
		total = sim.Duration(p.Now() - start)
		post = metrics.Default.Snapshot()
		rows = append(rows, SRPCMicroRow{
			Mechanism: "sRPC synchronous", Calls: calls, Payload: payload,
			Total: total, PerCall: total / sim.Duration(calls),
			MECalls: post.CounterDelta(pre, "srpc.calls"),
			Bytes:   post.CounterDelta(pre, "srpc.bytes_moved"),
		})

		// ③ Lock-step sealed RPC over untrusted memory.
		dh, err := attest.NewDHKey([]byte("micro-lockstep"))
		if err != nil {
			return err
		}
		files := map[string][]byte{
			"cuda.edl":  driver.CUDAEDL(),
			"app.cubin": gpu.BuildCubin("vec_add"),
		}
		manifest := enclave.NewManifest("gpu", "cuda.edl", "app.cubin", files, enclave.Resources{Memory: "16M"})
		res, err := pl.D.CreateEnclave(p, "lockstep", manifest, files, dh.Pub)
		if err != nil {
			return err
		}
		sec, err := dh.Shared(res.DHPub)
		if err != nil {
			return err
		}
		tx := attest.NewChannel(sec, "owner->enclave")
		rx := attest.NewChannel(sec, "enclave->owner")
		req := new(wire.Encoder) // each request is delivered before the next is sealed
		reply, err := pl.D.InvokeSealed(p, res.EID, mos.SealRequest(tx, req, driver.CallMemAlloc, driver.EncodeMemAlloc(uint64(payload))))
		if err != nil {
			return err
		}
		out, err := mos.OpenReply(rx, driver.CallMemAlloc, reply)
		if err != nil {
			return err
		}
		lptr, err := driver.DecodePtr(out)
		if err != nil {
			return err
		}
		pre = metrics.Default.Snapshot()
		start = p.Now()
		for i := 0; i < calls; i++ {
			reply, err := pl.D.InvokeSealed(p, res.EID, mos.SealRequest(tx, req, driver.CallHtoD, driver.EncodeHtoD(lptr, data)))
			if err != nil {
				return err
			}
			if _, err := mos.OpenReply(rx, driver.CallHtoD, reply); err != nil {
				return err
			}
		}
		total = sim.Duration(p.Now() - start)
		post = metrics.Default.Snapshot()
		rows = append(rows, SRPCMicroRow{
			Mechanism: "lock-step sealed", Calls: calls, Payload: payload,
			Total: total, PerCall: total / sim.Duration(calls),
			MECalls: post.CounterDelta(pre, "mos.mecalls.sealed"),
			Bytes:   post.CounterDelta(pre, "srpc.bytes_moved"), // zero: sealed RPC bypasses the ring
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// RenderSRPCMicro formats the RPC microbenchmark.
func RenderSRPCMicro(rows []SRPCMicroRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("sRPC microbenchmark (%d calls, %dB payload)", rows[0].Calls, rows[0].Payload),
		Columns: []string{"mechanism", "total(ms)", "per-call(us)", "mECalls", "smem-bytes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Mechanism, ms(r.Total), fmt.Sprintf("%.2f", float64(r.PerCall)/1e3),
			fmt.Sprintf("%d", r.MECalls), fmt.Sprintf("%d", r.Bytes),
		})
	}
	return t
}
