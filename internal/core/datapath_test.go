package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/srpc"
	"cronus/internal/wire"
)

// The data-path tests: the buffer-lifetime contract under a poisoning recycle
// hook, the steady-state allocation budget per call shape, and 64 KiB
// microbenchmarks of each shape (the repository benchmark's srpc_calls
// workload runs the same shapes end to end).

const dataBuf = 64 << 10

// dataRig is a session with one CUDA stream (arena granted) and a device
// buffer, the fixture every data-path test and benchmark drives.
type dataRig struct {
	p       *sim.Proc
	pl      *core.Platform
	sess    *core.Session
	conn    *core.CUDAConn
	buf     uint64 // dataBuf bytes of device memory
	scratch uint64 // one float32 the fused launches scale
}

func withDataRig(tb testing.TB, body func(r *dataRig) error) {
	tb.Helper()
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		sess, err := pl.NewSession(p, "datapath")
		if err != nil {
			return err
		}
		conn, err := sess.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("scale"), ZCPayload: dataBuf})
		if err != nil {
			return err
		}
		r := &dataRig{p: p, pl: pl, sess: sess, conn: conn}
		if r.buf, err = conn.MemAlloc(p, dataBuf); err != nil {
			return err
		}
		if r.scratch, err = conn.MemAlloc(p, 64); err != nil {
			return err
		}
		if err := conn.HtoD(p, r.scratch, gpu.Bytes([]float32{1})); err != nil {
			return err
		}
		if err := body(r); err != nil {
			return err
		}
		return conn.Close(p)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

func init() {
	enclave.RegisterCPULibrary(&enclave.CPULibrary{
		Name: "datapath-echo",
		Funcs: map[string]enclave.CPUFunc{
			// The result aliases args — allowed, because the transport
			// copies it into the reply before the call completes.
			"echo": func(_ *sim.Proc, args []byte) ([]byte, error) { return args, nil },
		},
	})
}

// openEcho boots a second CPU partition (a stream needs its two ends in
// different partitions), creates a CPU mEnclave running the echo library in
// it, and connects an sRPC stream to it from the session's enclave.
func openEcho(r *dataRig) (*srpc.Client, error) {
	echo, err := r.pl.BootMOS(r.p, "cpu-part-echo", "", []byte("optee-based CPU mOS image v1"), driver.NewCPU(r.pl.Costs))
	if err != nil {
		return nil, err
	}
	part := echo.Part
	files := map[string][]byte{
		"echo.edl": enclave.BuildEDL(enclave.MECallSpec{Name: "echo", Async: false}),
		"echo.so":  enclave.BuildCPUImage("datapath-echo"),
	}
	man := enclave.NewManifest("cpu", "echo.edl", "echo.so", files, enclave.Resources{Memory: "4M"})
	dh, err := attest.NewDHKey([]byte("datapath/echo"))
	if err != nil {
		return nil, err
	}
	res, err := r.pl.D.CreateEnclaveAt(r.p, part.Name, "echo", man, files, dh.Pub)
	if err != nil {
		return nil, err
	}
	secret, err := dh.Shared(res.DHPub)
	if err != nil {
		return nil, err
	}
	edl, err := enclave.ParseEDL(files["echo.edl"])
	if err != nil {
		return nil, err
	}
	return srpc.Connect(r.p, r.sess.Owner(), res.EID, secret, edl,
		srpc.Expected{EnclaveHash: man.Measure(files), MOSHash: part.MOSHash()}, r.pl.D, 0)
}

// TestBufferLifetimesUnderPoison enforces the data path's ownership rules by
// destroying every recycled buffer the moment its contents stop being valid
// (wire.SetRecycleHook): 0xA5 over the executor's staging buffers and reply
// encoder after each record, over a client's reply buffer when its next call
// starts, over the stream scratch a launch record was encoded into once the
// record is in the ring, over the driver's decoded launch arguments once the
// launch is done, and over a session's request buffer once the enclave has
// answered. If any mECall implementation kept its args instead of consuming
// them, or any caller were handed bytes that are recycled under it, a checked
// answer below would come back as 0xA5s: every transfer is verified against a
// host-side mirror, and the results a caller is entitled to keep — DtoH bytes,
// Ping replies — are re-verified after every later round of calls and at the
// end, after everything else has run over the same buffers.
func TestBufferLifetimesUnderPoison(t *testing.T) {
	wire.SetRecycleHook(func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	})
	defer wire.SetRecycleHook(nil)

	rng := rand.New(rand.NewSource(15))
	fill := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	type kept struct {
		what      string
		got, want []byte
	}
	var keep []kept
	recheck := func(after string) {
		for _, k := range keep {
			if !bytes.Equal(k.got, k.want) {
				t.Errorf("%s changed by the calls of %s", k.what, after)
			}
		}
	}
	withDataRig(t, func(r *dataRig) error {
		p, conn := r.p, r.conn
		mirror := make([]byte, dataBuf)
		scale := float32(1)
		check := func(what string, n int) error {
			out, err := conn.DtoH(p, r.buf, n)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, mirror[:n]) {
				t.Errorf("%s: device buffer differs from the mirror over %d bytes", what, n)
			}
			keep = append(keep, kept{what + " (kept DtoH result)", out, append([]byte(nil), mirror[:n]...)})
			return nil
		}
		// Sizes on both sides of a slot, a chunk and the ring wrap.
		for _, n := range []int{1, 100, srpc.SlotSize - 28, srpc.SlotSize, 5000, 16 << 10, 16<<10 + 1, 40000, dataBuf} {
			// Streamed HtoD, read back through synchronous DtoH.
			data := fill(n)
			if err := conn.HtoD(p, r.buf, data); err != nil {
				return err
			}
			copy(mirror, data)
			for i := range data {
				data[i] = 0 // args are copied into the ring: the caller may reuse them at once
			}
			if err := check(fmt.Sprintf("HtoD %d", n), n); err != nil {
				return err
			}

			// Streamed Launch, then fused ExecZC (copy + launch in one record).
			if err := conn.Launch(p, "scale", gpu.Dim{1, 1, 1}, r.scratch, gpu.FloatBits(2)); err != nil {
				return err
			}
			scale *= 2
			data = fill(n)
			var zcErr error
			done := false
			err := conn.ExecZC(p, r.buf, data, "scale", gpu.Dim{1, 1, 1},
				func(_ *sim.Proc, err error) { zcErr, done = err, true },
				r.scratch, gpu.FloatBits(0.5))
			if err != nil {
				return err
			}
			scale *= 0.5
			copy(mirror, data)
			if err := conn.Sync(p); err != nil {
				return err
			}
			if !done || zcErr != nil {
				t.Errorf("ExecZC %d: done=%v err=%v", n, done, zcErr)
			}
			if err := check(fmt.Sprintf("ExecZC %d", n), n); err != nil {
				return err
			}
			word, err := conn.DtoH(p, r.scratch, 4)
			if err != nil {
				return err
			}
			if got := gpu.UnpackF32(word)[0]; got != scale {
				t.Errorf("after launches at %d: scratch = %v, want %v", n, got, scale)
			}

			// Sealed Ping: the reply is the caller's to keep.
			data = fill(n)
			out, err := r.sess.Ping(p, data)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, data) {
				t.Errorf("Ping %d: echo differs", n)
			}
			recheck(fmt.Sprintf("round %d", n))
			keep = append(keep, kept{fmt.Sprintf("Ping %d (kept reply)", n), out, data})
		}

		// A CPU-library mECall over a stream. The echo's result aliases the
		// executor's staging buffer until the transport copies it out.
		echo, err := openEcho(r)
		if err != nil {
			return err
		}
		for _, n := range []int{0, 7, 3000, 30000} {
			data := fill(n)
			out, err := echo.CallSyncCap(p, "echo", data, n+64)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, data) {
				t.Errorf("echo %d: reply differs", n)
			}
			keep = append(keep, kept{fmt.Sprintf("echo %d (copied before the next call)", n), append([]byte(nil), out...), data})
		}
		if err := echo.Close(p); err != nil {
			return err
		}

		// NPU: streamed HtoD + Run, DtoH of what the program stored.
		nconn, err := r.sess.OpenNPU(p, core.NPUOptions{})
		if err != nil {
			return err
		}
		// Small operands, so a lane's 16-term sum stays inside the int8 the
		// commit stage saturates to.
		w, in := fill(npu.WgtBlockBytes), fill(npu.InpBlockBytes)
		for i := range w {
			w[i] = byte(int8(w[i]%5) - 2)
		}
		for i := range in {
			in[i] = byte(int8(in[i]%3) - 1)
		}
		wAddr, err := nconn.MemAlloc(p, uint64(len(w)))
		if err != nil {
			return err
		}
		iAddr, _ := nconn.MemAlloc(p, uint64(len(in)))
		oAddr, _ := nconn.MemAlloc(p, npu.OutBlockBytes)
		if err := nconn.HtoD(p, wAddr, w); err != nil {
			return err
		}
		if err := nconn.HtoD(p, iAddr, in); err != nil {
			return err
		}
		if err := nconn.Run(p, []npu.Insn{
			{Op: npu.OpLoad, Mem: npu.MemWgt, DRAMAddr: wAddr, Count: 1},
			{Op: npu.OpLoad, Mem: npu.MemInp, DRAMAddr: iAddr, Count: 1},
			{Op: npu.OpGemm, Count: 1, Reset: true},
			{Op: npu.OpCommit, Count: 1},
			{Op: npu.OpStore, Mem: npu.MemOut, DRAMAddr: oAddr, Count: 1},
			{Op: npu.OpFinish},
		}); err != nil {
			return err
		}
		for name, c := range map[string]struct {
			addr uint64
			want []byte
		}{"weights": {wAddr, w}, "input": {iAddr, in}} {
			got, err := nconn.DtoH(p, c.addr, len(c.want))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, c.want) {
				t.Errorf("NPU %s read back differ from what was streamed in", name)
			}
		}
		out, err := nconn.DtoH(p, oAddr, npu.OutBlockBytes)
		if err != nil {
			return err
		}
		for lane := 0; lane < npu.BlockOut; lane++ {
			var ref int32
			for k := 0; k < npu.BlockIn; k++ {
				ref += int32(int8(w[lane*npu.BlockIn+k])) * int32(int8(in[k]))
			}
			if int8(out[lane]) != int8(ref) {
				t.Errorf("NPU lane %d = %d, want %d", lane, int8(out[lane]), int8(ref))
			}
		}
		return nconn.Close(p)
	})
	for _, k := range keep {
		if !bytes.Equal(k.got, k.want) {
			t.Errorf("%s changed after later calls reused the data path's buffers", k.what)
		}
	}
}

// TestRingsDoNotShareLaunchStorage pins where launch storage may live. Two
// procs push fused saxpy launches, interleaved, on the two rings of one CUDA
// enclave — one GPU context, two executors — each on its own (x, y, alpha).
// While one ring's launch sleeps in the device engine the other's is decoded
// and launched, so storage shared by the two calls (decode scratch on the
// model, arguments read from the context after the engine sleep) would run
// one ring's kernel on the other's buffers. Each y must hold exactly its own
// ring's sum. The poisoning hook is on, so stale arguments read as 0xA5s.
func TestRingsDoNotShareLaunchStorage(t *testing.T) {
	wire.SetRecycleHook(func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	})
	defer wire.SetRecycleHook(nil)

	const n, launches = 16, 12
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		sess, err := pl.NewSession(p, "rings")
		if err != nil {
			return err
		}
		conn, err := sess.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("saxpy"), Rings: 2, ZCPayload: 4 * n})
		if err != nil {
			return err
		}
		type lane struct {
			x, y  uint64
			xs    []float32
			alpha float32
			done  int
		}
		lanes := make([]*lane, 2)
		for i := range lanes {
			l := &lane{alpha: float32(i + 2), xs: make([]float32, n)}
			for j := range l.xs {
				l.xs[j] = float32(10*i + j + 1)
			}
			if l.x, err = conn.MemAlloc(p, 4*n); err != nil {
				return err
			}
			if l.y, err = conn.MemAlloc(p, 4*n); err != nil {
				return err
			}
			if err := conn.HtoD(p, l.y, make([]byte, 4*n)); err != nil {
				return err
			}
			lanes[i] = l
		}
		if err := conn.Sync(p); err != nil {
			return err
		}
		finished := sim.NewSignal(p.Kernel())
		remaining := len(lanes)
		for i, l := range lanes {
			ring, l := conn.Ring(i), l
			payload := gpu.Bytes(l.xs)
			p.Kernel().Spawn(fmt.Sprintf("pusher-%d", i), func(q *sim.Proc) {
				defer func() {
					if remaining--; remaining == 0 {
						finished.Fire()
					}
				}()
				for k := 0; k < launches; k++ {
					err := ring.ExecZC(q, l.x, payload, "saxpy", gpu.Dim{n, 1, 1},
						func(_ *sim.Proc, err error) {
							if err != nil {
								t.Errorf("ring %d: %v", i, err)
							}
							l.done++
						}, l.x, l.y, uint64(math.Float32bits(l.alpha)))
					if err != nil {
						t.Errorf("ring %d: %v", i, err)
						return
					}
				}
				if err := ring.Sync(q); err != nil {
					t.Errorf("ring %d: %v", i, err)
				}
			})
		}
		finished.Wait(p)
		for i, l := range lanes {
			out, err := conn.DtoH(p, l.y, 4*n)
			if err != nil {
				return err
			}
			if l.done != launches {
				t.Errorf("ring %d: %d of %d launches completed", i, l.done, launches)
			}
			for j, got := range gpu.UnpackF32(out) {
				if want := launches * l.alpha * l.xs[j]; got != want {
					t.Errorf("ring %d: y[%d] = %v, want %v", i, j, got, want)
					break
				}
			}
		}
		return conn.Close(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDataPathAllocationBudget pins the steady-state allocation count of each
// call shape on the concrete *CUDAConn: a call allocates only what it hands
// back to its caller — DtoH's bytes, Ping's reply — and nothing else in the
// stream, executor, driver, device or kernel. A caller going through
// accel.CUDA pays for its own argument list as well; the figures' path is
// experiments.TestCUDAAllocationsPerCall's. Counts are averaged over 200
// calls after a warm-up, and the fused launches' completion callback is
// bound once, outside the count. A per-call allocation reads as a whole one;
// the slack of 0.05 is for the runtime's own rare ones (a type-assertion
// cache growing, a GC worker), which land in a window now and then.
func TestDataPathAllocationBudget(t *testing.T) {
	const calls = 200
	perCall := func(call func() error) (float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := call(); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / calls, nil
	}

	withDataRig(t, func(r *dataRig) error {
		p, conn := r.p, r.conn
		chunk, big := make([]byte, 16<<10), make([]byte, dataBuf)
		zcDone := 0
		notify := func(_ *sim.Proc, err error) {
			if err == nil {
				zcDone++
			}
		}
		shapes := []struct {
			name   string
			budget float64
			call   func() error
		}{
			{"HtoD 16 KiB", 0, func() error { return conn.HtoD(p, r.buf, chunk) }},
			{"Launch", 0, func() error {
				return conn.Launch(p, "scale", gpu.Dim{1, 1, 1}, r.scratch, gpu.FloatBits(1))
			}},
			{"ExecZC 64 KiB", 0, func() error {
				return conn.ExecZC(p, r.buf, big, "scale", gpu.Dim{1, 1, 1}, notify, r.scratch, gpu.FloatBits(1))
			}},
			{"DtoH 16 KiB (its result)", 1, func() error {
				_, err := conn.DtoH(p, r.buf, len(chunk))
				return err
			}},
			{"sealed Ping 64 KiB (its reply)", 1, func() error {
				_, err := r.sess.Ping(p, big)
				return err
			}},
		}
		for _, s := range shapes {
			// Warm-up: two trips round the ring and the arena, so every
			// reused buffer has reached its size.
			for i := 0; i < 64; i++ {
				if err := s.call(); err != nil {
					return err
				}
			}
			if err := conn.Sync(p); err != nil {
				return err
			}
			got, err := perCall(s.call)
			if err != nil {
				return err
			}
			if err := conn.Sync(p); err != nil {
				return err
			}
			t.Logf("%s: %.3f allocations/call (budget %.0f)", s.name, got, s.budget)
			if got > s.budget+0.05 {
				t.Errorf("%s makes %.2f allocations per call, budget %.0f", s.name, got, s.budget)
			}
		}
		if zcDone != 64+calls {
			t.Errorf("%d fused calls completed cleanly, want %d", zcDone, 64+calls)
		}
		return nil
	})
}

// benchShape times one data-path call shape moving dataBuf bytes per
// iteration on an established stream.
func benchShape(b *testing.B, call func(r *dataRig) error) {
	b.ReportAllocs()
	b.SetBytes(dataBuf)
	withDataRig(b, func(r *dataRig) error {
		for i := 0; i < 8; i++ {
			if err := call(r); err != nil {
				return err
			}
		}
		if err := r.conn.Sync(r.p); err != nil {
			return err
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := call(r); err != nil {
				return err
			}
		}
		err := r.conn.Sync(r.p)
		b.StopTimer()
		return err
	})
}

var benchPayload = make([]byte, dataBuf)

// BenchmarkSRPCHtoD64K: a streamed 64 KiB host-to-device transfer (four
// 16 KiB records on the default ring).
func BenchmarkSRPCHtoD64K(b *testing.B) {
	benchShape(b, func(r *dataRig) error { return r.conn.HtoD(r.p, r.buf, benchPayload) })
}

// BenchmarkSRPCDtoH64K: a synchronous 64 KiB device-to-host transfer (four
// chunked sync calls, each waiting for its reply).
func BenchmarkSRPCDtoH64K(b *testing.B) {
	benchShape(b, func(r *dataRig) error {
		_, err := r.conn.DtoH(r.p, r.buf, dataBuf)
		return err
	})
}

// BenchmarkSRPCExecZC64K: one fused record — 64 KiB staged in the arena,
// copied to the device and a kernel launched.
func BenchmarkSRPCExecZC64K(b *testing.B) {
	benchShape(b, func(r *dataRig) error {
		return r.conn.ExecZC(r.p, r.buf, benchPayload, "scale", gpu.Dim{1, 1, 1}, nil, r.scratch, gpu.FloatBits(1))
	})
}

// BenchmarkSealedPing64K: a lock-step sealed mECall echoing 64 KiB over
// untrusted memory (two HMACs over the payload each way).
func BenchmarkSealedPing64K(b *testing.B) {
	benchShape(b, func(r *dataRig) error {
		_, err := r.sess.Ping(r.p, benchPayload)
		return err
	})
}
