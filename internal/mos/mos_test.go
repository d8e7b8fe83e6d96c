package mos_test

import (
	"errors"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
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
		if spm.PartitionID(res.EID>>24) != pl.CPUOS.Part.ID {
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
		out, err := mos.OpenReply(rx, "sum", reply)
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

// TestCreateRefusesUnmeasuredFiles: the normal world hands Create a manifest
// whose image, or whose EDL, Images does not list, with the file's bytes
// beside it. VerifyImages compares only the files Images lists, so without
// Check the Enclave Manager would load bytes the measurement never hashed.
func TestCreateRefusesUnmeasuredFiles(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		for _, file := range []string{"math.so", "math.edl"} {
			man, files := cpuManifest()
			delete(man.Images, file)
			dh, _ := attest.NewDHKey([]byte("owner"))
			if _, _, err := pl.CPUOS.EM.Create(p, "unmeasured", man, files, dh.Pub); !errors.Is(err, enclave.ErrManifest) {
				t.Errorf("%s not in Images: Create err = %v, want enclave.ErrManifest", file, err)
			}
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
		if _, err := invoke(e, p, "backdoor", nil); !errors.Is(err, mos.ErrUndeclaredCall) {
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
		if _, err := invoke(e, p, driver.CallHtoD, driver.EncodeHtoD(a, gpu.Bytes([]float32{1, 2, 3, 4}))); err != nil {
			return err
		}
		if _, err := invoke(e, p, driver.CallHtoD, driver.EncodeHtoD(b, gpu.Bytes([]float32{10, 20, 30, 40}))); err != nil {
			return err
		}
		if _, err := invoke(e, p, driver.CallLaunch, driver.EncodeLaunch(new(wire.Encoder), "vec_add", gpu.Dim{4, 1, 1}, a, b, c)); err != nil {
			return err
		}
		res, err := invoke(e, p, driver.CallDtoH, dtoh(c, 16))
		if err != nil {
			return err
		}
		blob, _ := blobOf(res)
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

func npuManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{"vta.edl": driver.NPUEDL()}
	return enclave.NewManifest("npu", "vta.edl", "", files, enclave.Resources{Memory: "16M"}), files
}

// TestEnclaveKillRevokesGrantsAndDies: killing one mEnclave (§IV-D "Handling
// mEnclave failures") destroys its device context — the device memory it held
// is back; the device unit tests pin that DestroyContext scrubs it — and
// revokes its share, so the peer traps with a PeerFault. The kill frees the
// shared page itself, so after the peer's trap no grant to either partition
// is left, without the owner touching the page.
func TestEnclaveKillRevokesGrantsAndDies(t *testing.T) {
	for _, tc := range []struct {
		name     string
		manifest func() (enclave.Manifest, map[string][]byte)
		mos      func(pl *core.Platform) *mos.MOS
		peer     func(pl *core.Platform) *spm.Partition
		memUsed  func(pl *core.Platform) uint64 // nil: no device memory
		// alloc and htod name the device's calls; the GPU's and the NPU's
		// take the same arguments.
		alloc, htod string
	}{
		{"cpu", cpuManifest, func(pl *core.Platform) *mos.MOS { return pl.CPUOS },
			func(pl *core.Platform) *spm.Partition { return pl.GPUs[0].Part }, nil, "", ""},
		{"gpu", gpuManifest, func(pl *core.Platform) *mos.MOS { return pl.GPUs[0].OS },
			func(pl *core.Platform) *spm.Partition { return pl.CPUOS.Part },
			func(pl *core.Platform) uint64 { return pl.GPUs[0].Dev.MemUsed() }, driver.CallMemAlloc, driver.CallHtoD},
		{"npu", npuManifest, func(pl *core.Platform) *mos.MOS { return pl.NPUs[0].OS },
			func(pl *core.Platform) *spm.Partition { return pl.CPUOS.Part },
			func(pl *core.Platform) uint64 { return pl.NPUs[0].Dev.MemUsed() }, driver.CallVTAMemAlloc, driver.CallVTAHtoD},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
				m, peer := tc.mos(pl), tc.peer(pl)
				man, files := tc.manifest()
				dh, _ := attest.NewDHKey([]byte("owner"))
				res, e, err := m.EM.Create(p, "victim", man, files, dh.Pub)
				if err != nil {
					return err
				}
				var memBefore uint64
				if tc.memUsed != nil {
					memBefore = tc.memUsed(pl)
					out, err := invoke(e, p, tc.alloc, driver.EncodeMemAlloc(4096))
					if err != nil {
						return err
					}
					ptr, _ := driver.DecodePtr(out)
					if _, err := invoke(e, p, tc.htod, driver.EncodeHtoD(ptr, []byte("the victim's device secret"))); err != nil {
						return err
					}
					if got := tc.memUsed(pl); got != memBefore+4096 {
						t.Errorf("device memory in use %d after a 4096-byte alloc, %d before", got, memBefore)
					}
				}
				sharedBefore := e.MemUsed()
				ownerIPA, peerIPA, gid, err := e.ShareWith(p, 1, peer)
				if err != nil {
					return err
				}
				e.Kill(p)
				if _, ok := m.EM.Get(res.EID); ok {
					t.Error("killed enclave still resolvable")
				}
				if tc.memUsed != nil {
					if got := tc.memUsed(pl); got != memBefore {
						t.Errorf("device memory in use %d after the kill, %d before the enclave's alloc", got, memBefore)
					}
				}
				if got := e.MemUsed(); got != sharedBefore {
					t.Errorf("the enclave holds %d B of trusted memory after the kill, %d before the share", got, sharedBefore)
				}
				// The peer partition traps on access (enclave-failure signal).
				var pf *spm.PeerFault
				v := pl.SPM.NewView(peer, nil)
				if err := v.Read(p, peerIPA, make([]byte, 1)); !errors.As(err, &pf) {
					t.Errorf("peer access after the enclave kill: %v, want a PeerFault", err)
				}
				// The trap was the peer's notice, and the last the revoked
				// grant waited for: nothing names either partition.
				for _, part := range []*spm.Partition{m.Part, peer} {
					if cur, stale := pl.SPM.GrantsTo(part); cur != 0 || stale != 0 {
						t.Errorf("%s: %d current and %d stale grants after the trap, want 0, 0", part.Name, cur, stale)
					}
				}
				// A late release of the share (its stream's teardown) frees
				// nothing twice.
				e.ReleaseShared(gid, ownerIPA, 1)
				if got := e.MemUsed(); got != sharedBefore {
					t.Errorf("the enclave holds %d B of trusted memory after a late release, %d before the share", got, sharedBefore)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMOSPanicRecoversPartition: an mOS panic is a partition failure
// (FailPanic) the SPM recovers from. The failed incarnation's stream reports
// the peer failure and, torn down, leaves no grant; the next incarnation
// serves a fresh stream.
func TestMOSPanicRecoversPartition(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		gp := pl.GPUs[0]
		s, err := pl.NewSession(p, "panic")
		if err != nil {
			return err
		}
		open := func() (*core.CUDAConn, error) {
			return s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add"), Partition: gp.Part.Name})
		}
		old, err := open()
		if err != nil {
			return err
		}
		var recs []spm.FailureRecord
		defer pl.SPM.OnFailure(func(r *spm.FailureRecord) { recs = append(recs, *r) })()
		epoch := gp.Part.Epoch()
		gp.OS.Panic()
		if len(recs) != 1 || recs[0].Partition != gp.Part.Name || recs[0].Reason != spm.FailPanic {
			t.Errorf("failure records %+v, want one FailPanic of %s", recs, gp.Part.Name)
		}
		if err := pl.SPM.AwaitReady(p, gp.Part); err != nil {
			return err
		}
		if got := gp.Part.Epoch(); got != epoch+1 {
			t.Errorf("epoch %d after the restart, want %d", got, epoch+1)
		}
		if err := old.Sync(p); !errors.Is(err, srpc.ErrPeerFailed) {
			t.Errorf("the old stream answered %v, want ErrPeerFailed", err)
		}
		if cur, stale := pl.SPM.GrantsTo(gp.Part); cur != 0 || stale != 0 {
			t.Errorf("%d current and %d stale grants after the restart, want 0, 0", cur, stale)
		}
		p.Sleep(100 * sim.Microsecond) // the mOS re-probes its device
		fresh, err := open()
		if err != nil {
			return err
		}
		defer fresh.Close(p)
		ptr, err := fresh.MemAlloc(p, 16)
		if err != nil {
			return err
		}
		want := gpu.Bytes([]float32{1, 2, 3, 4})
		if err := fresh.HtoD(p, ptr, want); err != nil {
			return err
		}
		got, err := fresh.DtoH(p, ptr, len(want))
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			t.Errorf("a fresh stream read back %v, want %v", gpu.UnpackF32(got), gpu.UnpackF32(want))
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
	for _, tc := range []struct {
		dev, other string
		irq        int // the device-tree line of dev
		hal        func(pl *core.Platform) mos.HAL
	}{
		{"gpu0", "npu0", 32, func(pl *core.Platform) mos.HAL { return pl.GPUs[0].OS.HAL }},
		{"npu0", "gpu0", 64, func(pl *core.Platform) mos.HAL { return pl.NPUs[0].OS.HAL }},
	} {
		t.Run(tc.dev, func(t *testing.T) {
			err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
				hal, ok := tc.hal(pl).(interface{ IRQs() int })
				if !ok {
					return errors.New("unexpected HAL type")
				}
				before := hal.IRQs()
				// The device raises its device-tree-assigned line (e.g. a
				// fault or completion); the driver's handler runs in the
				// secure world.
				if err := pl.M.Bus.RaiseIRQ(tc.dev); err != nil {
					return err
				}
				if hal.IRQs() != before+1 {
					t.Errorf("driver handled %d IRQs, want %d", hal.IRQs(), before+1)
				}
				// Spoofing from the other device's identity onto this line
				// is refused, and the driver sees nothing.
				if err := pl.M.GIC.Raise(tc.other, tc.irq); err == nil {
					t.Error("cross-device interrupt spoofing accepted")
				}
				if hal.IRQs() != before+1 {
					t.Errorf("driver handled %d IRQs after the spoof, want %d", hal.IRQs(), before+1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dtoh is cuMemcpyDtoH's arguments as a slice.
func dtoh(src, n uint64) []byte {
	head := driver.DtoHHead(src, n)
	return head[:]
}

// blobOf reads a data reply's bytes (cuMemcpyDtoH).
func blobOf(res []byte) ([]byte, error) {
	d := wire.NewDecoder(res)
	b := d.BlobRef()
	return b, d.Err()
}
