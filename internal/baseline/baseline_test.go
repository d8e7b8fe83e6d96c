package baseline_test

import (
	"bytes"
	"testing"

	"cronus/internal/accel"
	"cronus/internal/baseline"
	"cronus/internal/gpu"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/workload/vtabench"
)

// The baselines are the divisor of every overhead in Fig 7/8/10. These tests
// pin what their doc comments promise: the same answers as the bare device,
// and a per-call surcharge that is exactly the CostModel terms named there.

var cudaSystems = []struct {
	system baseline.System
	open   func(d *gpu.Device, c *sim.CostModel, cubin []byte) (accel.CUDA, error)
}{
	{baseline.Native, func(d *gpu.Device, c *sim.CostModel, cubin []byte) (accel.CUDA, error) {
		return baseline.NewNativeCUDA(d, c, cubin)
	}},
	{baseline.TrustZone, func(d *gpu.Device, c *sim.CostModel, cubin []byte) (accel.CUDA, error) {
		return baseline.NewTrustZoneCUDA(d, c, cubin)
	}},
	{baseline.HIX, func(d *gpu.Device, c *sim.CostModel, cubin []byte) (accel.CUDA, error) {
		return baseline.NewHIXCUDA(d, c, cubin)
	}},
}

var npuSystems = []struct {
	system baseline.System
	open   func(d *npu.Device, c *sim.CostModel) accel.NPU
}{
	{baseline.Native, func(d *npu.Device, c *sim.CostModel) accel.NPU { return baseline.NewNativeNPU(d, c) }},
	{baseline.TrustZone, func(d *npu.Device, c *sim.CostModel) accel.NPU { return baseline.NewTrustZoneNPU(d, c) }},
}

// inSim runs body as the only process of a fresh kernel and returns the
// virtual time it took.
func inSim(t *testing.T, body func(k *sim.Kernel, p *sim.Proc) error) sim.Duration {
	t.Helper()
	k := sim.NewKernel()
	var elapsed sim.Duration
	var fail error
	k.Spawn("test", func(p *sim.Proc) {
		defer k.Stop()
		fail = body(k, p)
		elapsed = sim.Duration(p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatal(fail)
	}
	return elapsed
}

// The chatty CUDA sequence: three allocations, two uploads, cudaLaunches
// vec_add launches, a sync, one download, three frees.
const (
	cudaElems    = 256
	cudaBytes    = cudaElems * 4
	cudaLaunches = 8
	cudaCalls    = 3 + 2 + cudaLaunches + 1 + 1 + 3
)

func chattyCUDA(p *sim.Proc, ops accel.CUDA) ([]byte, error) {
	var ptr [3]uint64
	for i := range ptr {
		var err error
		if ptr[i], err = ops.MemAlloc(p, cudaBytes); err != nil {
			return nil, err
		}
	}
	a, b, c := ptr[0], ptr[1], ptr[2]
	xs := make([]float32, cudaElems)
	for i := range xs {
		xs[i] = float32(i%7) - 2.5
	}
	for _, dst := range []uint64{a, b} {
		if err := ops.HtoD(p, dst, gpu.Bytes(xs)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cudaLaunches; i++ {
		// b starts as a copy of a and accumulates: (cudaLaunches+1)·a at the end.
		if err := ops.Launch(p, "vec_add", gpu.Dim{cudaElems, 1, 1}, a, b, c); err != nil {
			return nil, err
		}
		b, c = c, b
	}
	if err := ops.Sync(p); err != nil {
		return nil, err
	}
	out, err := ops.DtoH(p, b, cudaBytes)
	if err != nil {
		return nil, err
	}
	for _, q := range ptr {
		if err := ops.MemFree(p, q); err != nil {
			return nil, err
		}
	}
	return out, ops.Close(p)
}

// runCUDA runs the chatty sequence on every CUDA system with costs and
// returns each one's result bytes and virtual time, in cudaSystems order.
func runCUDA(t *testing.T, costs *sim.CostModel) (outs [][]byte, times []sim.Duration) {
	t.Helper()
	for _, s := range cudaSystems {
		var out []byte
		d := inSim(t, func(k *sim.Kernel, p *sim.Proc) error {
			dev := gpu.New(k, costs, gpu.Config{Name: "gpu0", MemBytes: 1 << 20, SMs: 46, CopyEngs: 2, MPS: true, KeySeed: "t"})
			ops, err := s.open(dev, costs, gpu.BuildCubin("vec_add"))
			if err != nil {
				return err
			}
			out, err = chattyCUDA(p, ops)
			return err
		})
		outs, times = append(outs, out), append(times, d)
	}
	return outs, times
}

// hixRPC is one lock-step encrypted round trip carrying n payload bytes, as
// HIXCUDA's doc comment spells it: request sealed and opened, reply sealed
// and opened, the context switches both ways, one untrusted-memory handoff.
func hixRPC(c *sim.CostModel, n int) sim.Duration {
	return 2*c.Encrypt(n) + 2*c.Encrypt(64) + 2*c.SyncRPCSwitch() + c.UntrustedMsg
}

// hixRPCs is how many of them the chatty sequence makes: 2 per allocation, 3
// per copy, 4 per launch, 1 per sync and per free.
const hixRPCs = 3*2 + 3*3 + cudaLaunches*4 + 1 + 3

func TestCUDASystemsAgreeAndChargeWhatTheyDocument(t *testing.T) {
	costs := sim.DefaultCosts()
	outs, times := runCUDA(t, costs)
	want := make([]float32, cudaElems)
	for i := range want {
		want[i] = (float32(i%7) - 2.5) * float32(cudaLaunches+1)
	}
	if !bytes.Equal(outs[0], gpu.Bytes(want)) {
		t.Errorf("native result is not %d·a", cudaLaunches+1)
	}
	for i, s := range cudaSystems {
		if !bytes.Equal(outs[i], outs[0]) {
			t.Errorf("%s computed different bytes from native for the same call sequence", s.system)
		}
	}
	native, tz, hix := times[0], times[1], times[2]
	if !(native < tz && tz < hix) {
		t.Errorf("virtual time not ordered native < trustzone < hix: %v, %v, %v", native, tz, hix)
	}
	if got, want := tz-native, cudaCalls*costs.SyscallTrap; got != want {
		t.Errorf("TrustZone surcharge %v over %d calls, want one SyscallTrap each = %v", got, cudaCalls, want)
	}
	wantHIX := (3*2+3+1)*hixRPC(costs, 64) + // allocations, frees, the sync
		3*(hixRPC(costs, cudaBytes)+2*hixRPC(costs, 64)) + // two uploads, one download
		cudaLaunches*4*hixRPC(costs, 128)
	if got := hix - native; got != wantHIX {
		t.Errorf("HIX surcharge %v, want %v (the lock-step RPCs its doc comment counts)", got, wantHIX)
	}
}

func TestSwitchCostMovesHIXOnly(t *testing.T) {
	base := sim.DefaultCosts()
	_, before := runCUDA(t, base)
	doubled := sim.DefaultCosts()
	doubled.ContextSwitchS2 *= 2
	doubled.WorldSwitch *= 2
	_, after := runCUDA(t, doubled)
	if after[0] != before[0] {
		t.Errorf("native moved with the switch cost: %v -> %v", before[0], after[0])
	}
	if after[1] != before[1] {
		t.Errorf("TrustZone moved with the switch cost: %v -> %v", before[1], after[1])
	}
	want := hixRPCs * 2 * (doubled.SyncRPCSwitch() - base.SyncRPCSwitch())
	if got := after[2] - before[2]; got != want || got <= 0 {
		t.Errorf("HIX moved by %v, want %v (%d RPCs, two switch legs each)", got, want, hixRPCs)
	}
}

func TestNPUSystemsAgreeAndChargeWhatTheyDocument(t *testing.T) {
	const m, n, kk = 16, 32, 32
	const calls = 3 + 2 + 1 + 1 + 1 // allocations, uploads, run, sync, download
	costs := sim.DefaultCosts()
	a := make([]byte, m*kk)
	w := make([]byte, kk*n)
	for i := range a {
		a[i] = byte(int8(i%5 - 2))
	}
	for i := range w {
		w[i] = byte(int8(i%3 - 1))
	}
	var outs [][]byte
	var times []sim.Duration
	for _, s := range npuSystems {
		var out []byte
		d := inSim(t, func(k *sim.Kernel, p *sim.Proc) error {
			dev := npu.New(k, costs, npu.Config{Name: "npu0", MemBytes: 1 << 20, KeySeed: "t"})
			ops := s.open(dev, costs)
			var ptr [3]uint64
			for i, size := range []uint64{m * kk, kk * n, m * n} {
				var err error
				if ptr[i], err = ops.MemAlloc(p, size); err != nil {
					return err
				}
			}
			if err := ops.HtoD(p, ptr[0], a); err != nil {
				return err
			}
			if err := ops.HtoD(p, ptr[1], vtabench.PackWeights(w, kk, n)); err != nil {
				return err
			}
			if err := ops.Run(p, vtabench.MatmulProgram(ptr[0], ptr[1], ptr[2], m, n, kk)); err != nil {
				return err
			}
			if err := ops.Sync(p); err != nil {
				return err
			}
			var err error
			if out, err = ops.DtoH(p, ptr[2], m*n); err != nil {
				return err
			}
			return ops.Close(p)
		})
		outs, times = append(outs, out), append(times, d)
	}
	if bytes.Equal(outs[0], make([]byte, m*n)) {
		t.Error("native NPU matmul left the output all zero")
	}
	if !bytes.Equal(outs[1], outs[0]) {
		t.Error("TrustZone NPU computed different bytes from native for the same call sequence")
	}
	if got, want := times[1]-times[0], calls*costs.SyscallTrap; got != want {
		t.Errorf("TrustZone NPU surcharge %v over %d calls, want one SyscallTrap each = %v", got, calls, want)
	}
}

func TestRecoveryTimePerSystem(t *testing.T) {
	c := sim.DefaultCosts()
	for _, tc := range []struct {
		system baseline.System
		want   sim.Duration
	}{
		{baseline.CRONUS, c.DeviceClear + c.MOSRestart},
		{baseline.Native, c.MachineReboot},
		{baseline.TrustZone, c.MachineReboot},
		{baseline.HIX, c.MachineReboot},
		{baseline.System("sgx"), 0},
	} {
		if got := baseline.RecoveryTime(tc.system, c); got != tc.want {
			t.Errorf("RecoveryTime(%s) = %v, want %v", tc.system, got, tc.want)
		}
	}
	if baseline.RecoveryTime(baseline.CRONUS, c) >= baseline.RecoveryTime(baseline.TrustZone, c)/100 {
		t.Error("an mOS restart is not two orders under a machine reboot")
	}
}
