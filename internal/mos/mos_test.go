package mos_test

import (
	"errors"
	"strings"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/wire"
)

func init() {
	enclave.RegisterCPULibrary(&enclave.CPULibrary{
		Name: "mathlib",
		Funcs: map[string]enclave.CPUFunc{
			"sum": func(p *sim.Proc, args []byte) ([]byte, error) {
				d := wire.NewDecoder(args)
				a, b := d.U64(), d.U64()
				return wire.NewEncoder().U64(a + b).Bytes(), d.Err()
			},
		},
	})
}

// cpuManifest builds a valid CPU enclave manifest + files.
func cpuManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"math.edl": enclave.BuildEDL(enclave.MECallSpec{Name: "sum", Async: false}),
		"math.so":  enclave.BuildCPUImage("mathlib"),
	}
	man := enclave.NewManifest("cpu", "math.edl", "math.so", files, enclave.Resources{Memory: "1M"})
	return man, files
}

func gpuManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"cuda.edl":  driver.CUDAEDL(),
		"mat.cubin": gpu.BuildCubin("vec_add", "matmul"),
	}
	man := enclave.NewManifest("gpu", "cuda.edl", "mat.cubin", files, enclave.Resources{Memory: "16M"})
	return man, files
}

func TestCreateAndInvokeCPUEnclave(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest()
		callerDH, err := attest.NewDHKey([]byte("app-owner"))
		if err != nil {
			return err
		}
		res, _, err := pl.CPUOS.EM.Create(p, "math-e", man, files, callerDH.Pub)
		if err != nil {
			return err
		}
		if spm.PartitionID(res.EID>>24) != pl.CPUPart.ID {
			t.Errorf("eid %#x not minted for CPU partition", res.EID)
		}
		secret, err := callerDH.Shared(res.DHPub)
		if err != nil {
			return err
		}
		tx := attest.NewChannel(secret, "owner->enclave")
		rx := attest.NewChannel(secret, "enclave->owner")
		msg := mos.SealRequest(tx, new(wire.Encoder), "sum", wire.NewEncoder().U64(19).U64(23).Bytes())
		reply, err := pl.CPUOS.EM.InvokeSealed(p, res.EID, msg)
		if err != nil {
			return err
		}
		out, err := mos.OpenReply(rx, reply)
		if err != nil {
			return err
		}
		if wire.NewDecoder(out).U64() != 42 {
			t.Error("sum returned wrong result")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOnlyOwnerCanInvoke(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest()
		owner, _ := attest.NewDHKey([]byte("owner"))
		res, _, err := pl.CPUOS.EM.Create(p, "math-e", man, files, owner.Pub)
		if err != nil {
			return err
		}
		// A non-owner (the malicious normal OS invoking mECall with
		// arbitrary parameters, §III-B) does not know secret_dhke.
		evil := attest.NewChannel([]byte("guessed secret"), "owner->enclave")
		msg := mos.SealRequest(evil, new(wire.Encoder), "sum", wire.NewEncoder().U64(1).U64(2).Bytes())
		if _, err := pl.CPUOS.EM.InvokeSealed(p, res.EID, msg); err == nil {
			t.Error("non-owner mECall accepted")
		}
		// Replay of a genuine owner message is refused too.
		secret, _ := owner.Shared(res.DHPub)
		tx := attest.NewChannel(secret, "owner->enclave")
		good := mos.SealRequest(tx, new(wire.Encoder), "sum", wire.NewEncoder().U64(1).U64(2).Bytes())
		if _, err := pl.CPUOS.EM.InvokeSealed(p, res.EID, good); err != nil {
			t.Errorf("genuine call rejected: %v", err)
		}
		if _, err := pl.CPUOS.EM.InvokeSealed(p, res.EID, good); err == nil {
			t.Error("replayed mECall accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWrongPartitionDispatchRejected(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		// The untrusted OS dispatches a GPU manifest to the CPU mOS
		// (§III-B: "maliciously dispatch an mEnclave request to an
		// incorrect partition").
		man, files := gpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		_, _, err := pl.CPUOS.EM.Create(p, "mis", man, files, dh.Pub)
		if !errors.Is(err, mos.ErrWrongPartition) {
			t.Errorf("misdispatch: err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// invoke runs one mECall through Enclave.Invoke and returns its encoded result.
func invoke(e *mos.Enclave, p *sim.Proc, name string, args []byte) ([]byte, error) {
	var res wire.Encoder
	err := e.Invoke(p, name, args, &res)
	return res.Bytes(), err
}

func TestMECallMustBeDeclaredInEDL(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		_, e, err := pl.CPUOS.EM.Create(p, "math-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		// "sum" is declared; direct invocation works.
		if _, err := invoke(e, p, "sum", wire.NewEncoder().U64(1).U64(1).Bytes()); err != nil {
			t.Errorf("declared call failed: %v", err)
		}
		// An undeclared name is rejected even though the library has
		// no such function anyway — the EDL is the contract.
		if _, err := invoke(e, p, "backdoor", nil); err == nil || !strings.Contains(err.Error(), "EDL") {
			t.Errorf("undeclared call: err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCUDAEnclaveComputesOnGPU(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := gpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		_, e, err := pl.GPUs[0].OS.EM.Create(p, "cuda-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		alloc := func(n uint64) uint64 {
			res, err := invoke(e, p, driver.CallMemAlloc, driver.EncodeMemAlloc(n))
			if err != nil {
				t.Fatal(err)
			}
			ptr, _ := driver.DecodePtr(res)
			return ptr
		}
		a, b, c := alloc(16), alloc(16), alloc(16)
		if _, err := invoke(e, p, driver.CallHtoD, driver.EncodeHtoD(a, gpu.PackF32([]float32{1, 2, 3, 4}))); err != nil {
			return err
		}
		if _, err := invoke(e, p, driver.CallHtoD, driver.EncodeHtoD(b, gpu.PackF32([]float32{10, 20, 30, 40}))); err != nil {
			return err
		}
		if _, err := invoke(e, p, driver.CallLaunch, driver.EncodeLaunch(new(wire.Encoder), "vec_add", gpu.Dim{4, 1, 1}, a, b, c)); err != nil {
			return err
		}
		res, err := invoke(e, p, driver.CallDtoH, driver.EncodeDtoH(c, 16))
		if err != nil {
			return err
		}
		blob, _ := driver.DecodeBlob(res)
		got := gpu.UnpackF32(blob)
		want := []float32{11, 22, 33, 44}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("c = %v, want %v", got, want)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnclaveMemoryCapEnforced(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest() // cap: 1M = 256 pages
		dh, _ := attest.NewDHKey([]byte("owner"))
		_, e, err := pl.CPUOS.EM.Create(p, "math-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		if _, err := e.AllocShared(p, 16); err != nil {
			t.Errorf("alloc within cap: %v", err)
		}
		if _, err := e.AllocShared(p, 300); err == nil {
			t.Error("allocation beyond manifest cap accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnclaveKillRevokesGrantsAndDies(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		res, e, err := pl.CPUOS.EM.Create(p, "math-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		ipa, err := e.AllocShared(p, 1)
		if err != nil {
			return err
		}
		peerIPA, gid, err := pl.SPM.Share(pl.CPUPart, ipa, 1, pl.GPUs[0].Part)
		if err != nil {
			return err
		}
		e.TrackGrant(gid)
		e.Kill(p)
		if _, ok := pl.CPUOS.EM.Get(res.EID); ok {
			t.Error("killed enclave still resolvable")
		}
		// The peer partition traps on access (enclave-failure signal).
		v := pl.SPM.NewView(pl.GPUs[0].Part, nil)
		if err := v.Read(p, peerIPA, make([]byte, 1)); err == nil {
			t.Error("peer access after enclave kill succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocalReportFromEM(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := cpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		res, _, err := pl.CPUOS.EM.Create(p, "math-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		r, mac, err := pl.CPUOS.EM.LocalReport(res.EID, 77)
		if err != nil {
			return err
		}
		if !pl.SPM.LSK().Verify(r, mac) {
			t.Error("local report rejected")
		}
		if r.EnclaveHash != res.Hash || r.Nonce != 77 {
			t.Error("local report content wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlatformReportCoversEnclavesAndDevices(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := gpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		_, _, err := pl.GPUs[0].OS.EM.Create(p, "cuda-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		sr := pl.SPM.BuildReport(pl.GPUs[0].OS.EM.Measurements(), 5)
		dt := pl.SPM.DTHash()
		err = pl.Verifier.VerifyReport(sr, attest.Expected{
			EnclaveHashes: map[string]attest.Measurement{"cuda-e": man.Measure(files)},
			DTHash:        &dt,
			Nonce:         5,
		})
		if err != nil {
			t.Errorf("full-chain verification failed: %v", err)
		}
		if _, ok := sr.Report.DeviceKeys["gpu0"]; !ok {
			t.Error("GPU device key missing from report")
		}
		if _, ok := sr.Report.DeviceKeys["npu0"]; !ok {
			t.Error("NPU device key missing from report")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPartitionRestartRebuildsEnclaveManager(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		man, files := gpuManifest()
		dh, _ := attest.NewDHKey([]byte("owner"))
		res, _, err := pl.GPUs[0].OS.EM.Create(p, "cuda-e", man, files, dh.Pub)
		if err != nil {
			return err
		}
		pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
		pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		p.Sleep(sim.Millisecond) // let the reinit proc run
		// The old enclave is gone; a new EM is live and can create.
		if _, ok := pl.GPUs[0].OS.EM.Get(res.EID); ok {
			t.Error("enclave survived partition restart")
		}
		if _, _, err := pl.GPUs[0].OS.EM.Create(p, "cuda-e2", man, files, dh.Pub); err != nil {
			t.Errorf("create after restart: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatKeepsWatchdogQuiet(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		pl.GPUs[0].OS.StartHeartbeat(0)
		wd := pl.SPM.StartWatchdog()
		p.Sleep(20 * pl.Costs.HangPollEvery)
		if pl.GPUs[0].Part.Epoch() != 0 {
			t.Error("healthy heart-beating partition was restarted")
		}
		pl.K.Kill(wd)
		// Stop the heartbeat via partition teardown machinery.
		pl.SPM.Fail(pl.GPUs[0].Part, spm.FailRequested)
		pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeviceInterruptReachesDriver(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		hal, ok := pl.GPUs[0].OS.HAL.(*driver.GPU)
		if !ok {
			t.Fatal("unexpected HAL type")
		}
		before := hal.IRQs()
		// The GPU raises its device-tree-assigned line (e.g. a fault or
		// completion); the driver's handler runs in the secure world.
		if err := pl.M.Bus.RaiseIRQ("gpu0"); err != nil {
			return err
		}
		if hal.IRQs() != before+1 {
			t.Errorf("driver handled %d IRQs, want %d", hal.IRQs(), before+1)
		}
		// Spoofing from the NPU's identity onto the GPU line is refused.
		gpuIRQ := 32
		if err := pl.M.GIC.Raise("npu0", gpuIRQ); err == nil {
			t.Error("cross-device interrupt spoofing accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
