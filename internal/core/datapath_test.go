package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/srpc"
)

// The data-path tests: the buffer-lifetime contract under a poisoning recycle
// hook, the steady-state allocation budget per call shape, and the 64 KiB
// microbenchmarks behind BENCH_hotpath.json's srpc rows.

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
		if err := conn.HtoD(p, r.scratch, gpu.PackF32([]float32{1})); err != nil {
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
	part, err := r.pl.SPM.CreatePartition("cpu-part-echo", "", []byte("optee-based CPU mOS image v1"))
	if err != nil {
		return nil, err
	}
	os, err := mos.Boot(r.p, r.pl.SPM, part, driver.NewCPU(r.pl.Costs))
	if err != nil {
		return nil, err
	}
	r.pl.D.RegisterMOS(os)
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
// (0xA5 over the executor's staging buffers and reply encoder after each
// record, over a client's reply buffer when its next call starts). If any
// mECall implementation kept its args instead of consuming them, or any
// caller were handed bytes that are recycled under it, a checked answer below
// would come back as 0xA5s: every transfer is verified against a host-side
// mirror, and results a caller is entitled to keep are re-verified at the end,
// after everything else has run over the same buffers.
func TestBufferLifetimesUnderPoison(t *testing.T) {
	srpc.SetRecycleHook(func(b []byte) {
		for i := range b {
			b[i] = 0xA5
		}
	})
	defer srpc.SetRecycleHook(nil)

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

// TestDataPathAllocationBudget pins the steady-state allocation cost of each
// call shape, so a reintroduced payload copy fails here rather than in a
// benchmark three changes later. The budgets are bytes allocated per call by
// the whole process (caller, executor, kernel), measured over 200 calls after
// a warm-up.
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
		return float64(after.TotalAlloc-before.TotalAlloc) / calls, nil
	}
	// A large allocation is rounded up to whole 8 KiB runtime pages, which
	// the budgets for the slices a call must return have to allow.
	pages := func(n int) float64 { return float64((n + 8191) &^ 8191) }

	withDataRig(t, func(r *dataRig) error {
		p, conn := r.p, r.conn
		chunk, big := make([]byte, 16<<10), make([]byte, dataBuf)
		shapes := []struct {
			name   string
			budget float64
			call   func() error
		}{
			{"HtoD 16 KiB", 1024, func() error { return conn.HtoD(p, r.buf, chunk) }},
			{"ExecZC 64 KiB", 1024, func() error {
				return conn.ExecZC(p, r.buf, big, "scale", gpu.Dim{1, 1, 1}, nil, r.scratch, gpu.FloatBits(1))
			}},
			{"DtoH 16 KiB (its returned slice + 1 KiB)", float64(len(chunk)) + 1024, func() error {
				_, err := conn.DtoH(p, r.buf, len(chunk))
				return err
			}},
			{"sealed Ping 64 KiB (request and reply messages + 2 KiB)", 2*pages(len(big)+64) + 2048, func() error {
				_, err := r.sess.Ping(p, big)
				return err
			}},
		}
		for _, s := range shapes {
			// Warm-up: two trips round the ring and the arena, so every
			// page either touches has been faulted in and every reused
			// buffer has reached its size.
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
			t.Logf("%s: %.0f B/call (budget %.0f)", s.name, got, s.budget)
			if got > s.budget {
				t.Errorf("%s allocates %.0f B per call, budget %.0f", s.name, got, s.budget)
			}
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
