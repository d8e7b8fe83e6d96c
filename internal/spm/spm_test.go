package spm

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/hw"
	"cronus/internal/sim"
)

// testRig assembles a booted SPM on a small machine.
func testRig(t *testing.T) (*sim.Kernel, *hw.Machine, *SPM) {
	t.Helper()
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 4 << 20, SecureMemBytes: 8 << 20})
	if err := m.Fuses.Burn("platform-rot", []byte("test-rot-seed")); err != nil {
		t.Fatal(err)
	}
	m.DT.Add(hw.DTNode{Name: "gpu0", Compatible: "nvidia,turing", IRQ: 32, Secure: true, Vendor: "nvidia"})
	m.DT.Add(hw.DTNode{Name: "npu0", Compatible: "vta,fsim", IRQ: 33, Secure: true, Vendor: "vta"})
	s, err := Boot(k, m, sim.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return k, m, s
}

func TestBootRejectsInvalidDeviceTree(t *testing.T) {
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 1 << 20, SecureMemBytes: 1 << 20})
	m.Fuses.Burn("platform-rot", []byte("seed"))
	m.DT.Add(hw.DTNode{Name: "a", IRQ: 1})
	m.DT.Add(hw.DTNode{Name: "b", IRQ: 1}) // IRQ spoofing setup
	if _, err := Boot(k, m, sim.DefaultCosts()); err == nil {
		t.Fatal("boot accepted a malicious device tree")
	}
}

func TestBootFreezesPlatform(t *testing.T) {
	_, m, _ := testRig(t)
	if !m.DT.Frozen() {
		t.Fatal("device tree not frozen after boot")
	}
	if !m.TZASC.Locked() {
		t.Fatal("TZASC not locked after boot")
	}
	if err := m.Fuses.Burn("rogue", []byte("x")); err == nil {
		t.Fatal("fuse bank not locked after boot")
	}
}

func TestBootRequiresRoTFuse(t *testing.T) {
	k := sim.NewKernel()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 1 << 20, SecureMemBytes: 1 << 20})
	if _, err := Boot(k, m, sim.DefaultCosts()); err == nil {
		t.Fatal("boot succeeded without a fused root of trust")
	}
}

func TestCreatePartitionOnePerDevice(t *testing.T) {
	_, _, s := testRig(t)
	p1, err := s.CreatePartition("gpu-part", "gpu0", []byte("gpu mOS"))
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID != 1 {
		t.Fatalf("first partition id = %d", p1.ID)
	}
	if _, err := s.CreatePartition("gpu-part2", "gpu0", []byte("x")); err == nil {
		t.Fatal("two partitions claimed the same device")
	}
	if _, err := s.CreatePartition("ghost", "tpu9", []byte("x")); err == nil {
		t.Fatal("partition created for a device not in the tree")
	}
	// CPU partitions need no device.
	if _, err := s.CreatePartition("cpu-part", "", []byte("cpu mOS")); err != nil {
		t.Fatal(err)
	}
}

func TestAllocAndViewReadWrite(t *testing.T) {
	k, _, s := testRig(t)
	p, _ := s.CreatePartition("cpu", "", []byte("mOS"))
	var done bool
	k.Spawn("test", func(proc *sim.Proc) {
		ipa, err := s.AllocMem(p, 2)
		if err != nil {
			t.Error(err)
			return
		}
		v := s.NewView(p, nil)
		msg := []byte("trusted data crossing a page boundary ok")
		if err := v.Write(proc, ipa+hw.PageSize-10, msg); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, len(msg))
		if err := v.Read(proc, ipa+hw.PageSize-10, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != string(msg) {
			t.Errorf("got %q", got)
		}
		done = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("test body did not run")
	}
}

func TestViewWithStage1Translation(t *testing.T) {
	k, _, s := testRig(t)
	p, _ := s.CreatePartition("cpu", "", []byte("mOS"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipa, _ := s.AllocMem(p, 1)
		s1 := hw.NewAddrSpace("enclave-va")
		const va = 0x400000
		s1.Map(va>>hw.PageShift, ipa>>hw.PageShift, hw.PermRW)
		v := s.NewView(p, s1)
		if err := v.Write(proc, va+8, []byte("via-stage1")); err != nil {
			t.Error(err)
			return
		}
		// The same bytes are visible through the mOS (no stage-1) view.
		mosView := s.NewView(p, nil)
		got := make([]byte, 10)
		if err := mosView.Read(proc, ipa+8, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "via-stage1" {
			t.Errorf("got %q", got)
		}
		// Unmapped VA faults as unmapped.
		err := v.Read(proc, 0x900000, got)
		var f *hw.Fault
		if !errors.As(err, &f) || f.Kind != hw.FaultUnmapped {
			t.Errorf("unmapped VA: err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShareCrossPartition(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		ipaB, _, err := s.Share(pa, ipaA, 1, pb)
		if err != nil {
			t.Error(err)
			return
		}
		va := s.NewView(pa, nil)
		vb := s.NewView(pb, nil)
		if err := va.Write(proc, ipaA, []byte("ring-record")); err != nil {
			t.Error(err)
			return
		}
		got := make([]byte, 11)
		if err := vb.Read(proc, ipaB, got); err != nil {
			t.Error(err)
			return
		}
		if string(got) != "ring-record" {
			t.Errorf("peer read %q", got)
		}
		// Writes flow the other way too.
		if err := vb.Write(proc, ipaB, []byte("REPLY")); err != nil {
			t.Error(err)
		}
		if err := va.Read(proc, ipaA, got[:5]); err != nil {
			t.Error(err)
		}
		if string(got[:5]) != "REPLY" {
			t.Errorf("owner read %q", got[:5])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShareOnceRule(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	pc, _ := s.CreatePartition("npu", "npu0", []byte("c"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		if _, _, err := s.Share(pa, ipaA, 1, pb); err != nil {
			t.Error(err)
			return
		}
		_, _, err := s.Share(pa, ipaA, 1, pc)
		if err == nil || !strings.Contains(err.Error(), "shared only once") {
			t.Errorf("double share: err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShareRefusedForForeignPages(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		if _, _, err := s.Share(pa, 0x1000, 1, pb); err == nil {
			t.Error("shared pages the partition does not own")
		}
		if _, _, err := s.Share(pa, 0, 1, pa); err == nil {
			t.Error("self-share accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailClosesTOCTOUWindowImmediately(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		_, _, err := s.Share(pa, ipaA, 1, pb)
		if err != nil {
			t.Error(err)
			return
		}
		va := s.NewView(pa, nil)
		va.Write(proc, ipaA, []byte("pre-failure"))

		// pb fails. Step ① must synchronously revoke pa's access to
		// the shared page: A1 (TOCTOU) means pa must NOT be able to
		// keep writing secrets into memory a substituted pb could read.
		s.Fail(pb, FailPanic)
		err = va.Write(proc, ipaA, []byte("secret-after-failure"))
		var pf *PeerFault
		if !errors.As(err, &pf) {
			t.Errorf("write after peer failure: err = %v, want PeerFault", err)
			return
		}
		if pf.Failed != "gpu" {
			t.Errorf("fault names %q", pf.Failed)
		}
		// Trap handling restored pa's exclusive access to its own page
		// (the grant is dissolved), so the *next* access succeeds.
		if err := va.Write(proc, ipaA, []byte("cleanup")); err != nil {
			t.Errorf("post-trap access: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailScrubsOwnedPagesBeforeRestart(t *testing.T) {
	k, m, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	var pfn uint64
	k.Spawn("test", func(proc *sim.Proc) {
		ipa, _ := s.AllocMem(pb, 1)
		v := s.NewView(pb, nil)
		v.Write(proc, ipa, []byte("crashed secrets"))
		e, _ := pb.stage2.Lookup(ipa >> hw.PageShift)
		pfn = e.Frame
		s.Fail(pb, FailPanic)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// A3: after recovery the physical frame must contain zeroes.
	buf := make([]byte, 15)
	if err := m.Mem.Read(hw.SecureWorld, hw.PA(pfn<<hw.PageShift), buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("crashed partition's memory leaked across restart")
		}
	}
}

func TestFailRecoveryTimeline(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	var rec *FailureRecord
	k.Spawn("test", func(proc *sim.Proc) {
		proc.Sleep(1000)
		rec = s.Fail(pb, FailRequested)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no failure record")
	}
	want := sim.Duration(s.Costs.DeviceClear + s.Costs.MOSRestart)
	if rec.Downtime() != want {
		t.Fatalf("downtime = %v, want %v", rec.Downtime(), want)
	}
	if pb.State() != PartReady || pb.Epoch() != 1 {
		t.Fatalf("state=%v epoch=%d after recovery", pb.State(), pb.Epoch())
	}
	// Recovery is ~3 orders of magnitude faster than a machine reboot.
	if float64(rec.Downtime()) > float64(s.Costs.MachineReboot)/100 {
		t.Fatal("mOS restart not substantially faster than reboot")
	}
}

func TestFailKillsPartitionProcs(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	ran := false
	k.Spawn("setup", func(proc *sim.Proc) {
		worker := k.Spawn("gpu-worker", func(w *sim.Proc) {
			w.Sleep(1_000_000)
			ran = true // must never happen
		})
		pb.Register(worker)
		proc.Sleep(100)
		s.Fail(pb, FailPanic)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("partition proc survived the failure")
	}
}

func TestSharesRefusedWhileRestarting(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		s.Fail(pb, FailPanic)
		// r_f = 1: share must be refused during recovery.
		if _, _, err := s.Share(pa, ipaA, 1, pb); err == nil {
			t.Error("share accepted while partition restarting")
		}
		s.AwaitReady(proc, pb)
		if _, _, err := s.Share(pa, ipaA, 1, pb); err != nil {
			t.Errorf("share after recovery: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStaleViewDiesAcrossRestart(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipa, _ := s.AllocMem(pb, 1)
		v := s.NewView(pb, nil)
		s.Fail(pb, FailPanic)
		s.AwaitReady(proc, pb)
		// The old incarnation's view must not read the new incarnation.
		err := v.Read(proc, ipa, make([]byte, 1))
		var down *PartitionDownError
		if !errors.As(err, &down) {
			t.Errorf("stale view: err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentFailuresRecoverIndependently(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	pc, _ := s.CreatePartition("npu", "npu0", []byte("c"))
	k.Spawn("test", func(proc *sim.Proc) {
		s.Fail(pb, FailPanic)
		s.Fail(pc, FailPanic)
		// pa is unaffected throughout (fault isolation, R3.1).
		if pa.State() != PartReady {
			t.Error("healthy partition disturbed by failures")
		}
		s.AwaitReady(proc, pb)
		s.AwaitReady(proc, pc)
		// Recoveries ran concurrently: total elapsed is one recovery,
		// not two.
		want := sim.Time(s.Costs.DeviceClear + s.Costs.MOSRestart)
		if proc.Now() != want {
			t.Errorf("recovery of two partitions took %v, want %v (concurrent)", proc.Now(), want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogDetectsHang(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	pb.WatchHangs()
	wd := s.StartWatchdog()
	k.Spawn("test", func(proc *sim.Proc) {
		// Beat the partition's heartbeat word for a while, then go silent
		// (hang).
		ipa, err := s.AllocMem(pb, 1)
		if err != nil {
			t.Error(err)
			return
		}
		pb.ArmHeartbeat(ipa)
		view := s.NewView(pb, nil)
		for i := 1; i <= 5; i++ {
			proc.Sleep(s.Costs.HangPollEvery)
			if err := view.Write(proc, ipa, binary.LittleEndian.AppendUint64(nil, uint64(i))); err != nil {
				t.Error(err)
				return
			}
		}
		// Wait long enough for the watchdog to notice and recovery to finish.
		proc.Sleep(5*s.Costs.HangPollEvery + s.Costs.DeviceClear + s.Costs.MOSRestart + sim.Millisecond)
		if pb.Epoch() != 1 {
			t.Errorf("epoch = %d, want 1 (hang detected and recovered)", pb.Epoch())
		}
		k.Kill(wd)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRevokeGrantNotifiesPeerOfEnclaveFailure(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		ipaB, gid, err := s.Share(pa, ipaA, 1, pb)
		if err != nil {
			t.Error(err)
			return
		}
		// The enclave in pa dies; its mOS revokes the share.
		if err := s.RevokeGrant(gid, "enclave-a"); err != nil {
			t.Error(err)
			return
		}
		vb := s.NewView(pb, nil)
		err = vb.Read(proc, ipaB, make([]byte, 1))
		var pf *PeerFault
		if !errors.As(err, &pf) || pf.Failed != "enclave-a" {
			t.Errorf("peer read after revoke: err = %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRevokedGrantPeerTrapsFirst: after RevokeGrant (an mEnclave failure)
// each surviving side gets its own recovery whichever traps first. Here the
// peer traps first and loses the page; the owner's next access still traps,
// recovers its exclusive access, and the page can be shared again.
func TestRevokedGrantPeerTrapsFirst(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		ipaB, gid, err := s.Share(pa, ipaA, 1, pb)
		if err != nil {
			t.Error(err)
			return
		}
		if err := s.RevokeGrant(gid, "enclave-a"); err != nil {
			t.Error(err)
			return
		}
		va, vb := s.NewView(pa, nil), s.NewView(pb, nil)
		var pf *PeerFault
		if err := vb.Read(proc, ipaB, make([]byte, 1)); !errors.As(err, &pf) || pf.Failed != "enclave-a" {
			t.Errorf("peer read after revoke: err = %v, want PeerFault", err)
		}
		if err := vb.Read(proc, ipaB, make([]byte, 1)); err == nil || errors.As(err, &pf) {
			t.Errorf("peer's second read: err = %v, want a raw fault (the page is gone)", err)
		}
		if err := va.Read(proc, ipaA, make([]byte, 1)); !errors.As(err, &pf) || pf.Failed != "enclave-a" {
			t.Errorf("owner read after the peer's trap: err = %v, want PeerFault", err)
		}
		if err := va.Read(proc, ipaA, make([]byte, 1)); err != nil {
			t.Errorf("owner read after its trap: %v", err)
		}
		if cur, stale := s.GrantsTo(pa); cur != 0 || stale != 0 {
			t.Errorf("owner holds %d current, %d stale grants after both traps", cur, stale)
		}
		if _, _, err := s.Share(pa, ipaA, 1, pb); err != nil {
			t.Errorf("re-share after recovery: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestOwnerFreeEndsItsWaitOnARevokedGrant: an owner that frees the pages of
// a revoked grant has no access left to recover, so the grant waits only for
// the peer's trap, which still gets its PeerFault — whether the free comes
// before that trap or after it. Then no grant names either partition.
func TestOwnerFreeEndsItsWaitOnARevokedGrant(t *testing.T) {
	for _, peerFirst := range []bool{false, true} {
		k, _, s := testRig(t)
		pa, _ := s.CreatePartition("cpu", "", []byte("a"))
		pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
		k.Spawn("test", func(proc *sim.Proc) {
			ipaA, _ := s.AllocMem(pa, 1)
			ipaB, gid, err := s.Share(pa, ipaA, 1, pb)
			if err != nil {
				t.Error(err)
				return
			}
			if err := s.RevokeGrant(gid, "enclave-a"); err != nil {
				t.Error(err)
				return
			}
			peerTrap := func() {
				var pf *PeerFault
				if err := s.NewView(pb, nil).Read(proc, ipaB, make([]byte, 1)); !errors.As(err, &pf) {
					t.Errorf("peer first %v: peer read after the revoke: %v, want PeerFault", peerFirst, err)
				}
			}
			if peerFirst {
				peerTrap()
			}
			s.FreeMem(pa, ipaA, 1)
			if !peerFirst {
				peerTrap()
			}
			for _, part := range []*Partition{pa, pb} {
				if cur, stale := s.GrantsTo(part); cur != 0 || stale != 0 {
					t.Errorf("peer first %v: %s holds %d current, %d stale grants", peerFirst, part.Name, cur, stale)
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLocalReportValidation(t *testing.T) {
	_, _, s := testRig(t)
	p, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	eid := uint32(p.ID)<<24 | 7
	r, mac, err := s.LocalReportFor(p, eid, attest.Measure([]byte("enclave")), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !s.LSK().Verify(r, mac) {
		t.Fatal("genuine local report rejected")
	}
	// eid claiming a different partition is refused (cross-mOS message
	// validation via the mOS bits of the eid).
	if _, _, err := s.LocalReportFor(p, uint32(99)<<24|7, attest.Measurement{}, 5); err == nil {
		t.Fatal("foreign eid accepted")
	}
}

func TestBuildReportCoversAllPartitions(t *testing.T) {
	_, _, s := testRig(t)
	s.CreatePartition("cpu", "", []byte("cpu mOS"))
	s.CreatePartition("gpu", "gpu0", []byte("gpu mOS"))
	sr := s.BuildReport(map[string]attest.Measurement{"e1": attest.Measure([]byte("e"))}, 42)
	if len(sr.Report.MOSHashes) != 2 {
		t.Fatalf("report has %d mOS hashes, want 2", len(sr.Report.MOSHashes))
	}
	if sr.Report.MOSHashes["gpu"] != attest.Measure([]byte("gpu mOS")) {
		t.Fatal("gpu mOS hash wrong")
	}
	if sr.Report.Nonce != 42 {
		t.Fatal("nonce not propagated")
	}
	if !attest.Verify(s.AtKPub, sr.Report.Encode(), sr.Sig) {
		t.Fatal("report signature invalid")
	}
	if sr.Report.DTHash != s.DTHash() {
		t.Fatal("DT hash missing from report")
	}
}

func TestFullAttestationChainThroughSPM(t *testing.T) {
	_, _, s := testRig(t)
	s.CreatePartition("gpu", "gpu0", []byte("gpu mOS"))

	svc := attest.NewService([]byte("svc"))
	svc.RegisterPlatform(s.RoTPub())
	cert, err := svc.EndorseAtK(s.RoTPub(), s.AtKPub, s.ProveAtK())
	if err != nil {
		t.Fatal(err)
	}
	s.InstallAtKCert(cert)

	ca := attest.NewVendorCA("nvidia")
	devPriv := attest.KeyFromSeed([]byte("gpu0-device-key"))
	devPub := devPriv.Public().(attest.PublicKey)
	s.RegisterDeviceKey("gpu0", "nvidia", devPub, ca.EndorseDevice(devPub))

	sr := s.BuildReport(nil, 9)
	v := attest.NewVerifier(svc.Identity)
	v.TrustVendor("nvidia", ca.Identity)
	dt := s.DTHash()
	err = v.VerifyReport(sr, attest.Expected{
		MOSHashes: map[string]attest.Measurement{"gpu": attest.Measure([]byte("gpu mOS"))},
		DTHash:    &dt,
		Nonce:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMOSChangesMeasurement(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("mOS v1"))
	oldHash := pb.MOSHash()
	k.Spawn("test", func(proc *sim.Proc) {
		rec := s.UpdateMOS(pb, []byte("mOS v2 with the CVE fixed"))
		if rec == nil {
			t.Error("update did not trigger a restart")
			return
		}
		s.AwaitReady(proc, pb)
		if pb.MOSHash() == oldHash {
			t.Error("mOS measurement unchanged after update")
		}
		if pb.MOSHash() != attest.Measure([]byte("mOS v2 with the CVE fixed")) {
			t.Error("mOS measurement does not match the new image")
		}
		if rec.Reason != FailRequested {
			t.Errorf("reason = %v, want requested", rec.Reason)
		}
		// Attestation reports carry the new hash.
		sr := s.BuildReport(nil, 1)
		if sr.Report.MOSHashes["gpu"] != pb.MOSHash() {
			t.Error("report does not reflect the updated mOS")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMOSTearsDownShares(t *testing.T) {
	k, _, s := testRig(t)
	pa, _ := s.CreatePartition("cpu", "", []byte("a"))
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("b"))
	k.Spawn("test", func(proc *sim.Proc) {
		ipaA, _ := s.AllocMem(pa, 1)
		_, _, err := s.Share(pa, ipaA, 1, pb)
		if err != nil {
			t.Error(err)
			return
		}
		s.UpdateMOS(pb, []byte("b v2"))
		// The sharer traps exactly as in a crash: an update must not
		// leave a stale mapping into the new incarnation.
		va := s.NewView(pa, nil)
		err = va.Write(proc, ipaA, []byte("x"))
		var pf *PeerFault
		if !errors.As(err, &pf) {
			t.Errorf("err = %v, want PeerFault", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMOSOnFailedPartitionDropsPendingImage(t *testing.T) {
	k, _, s := testRig(t)
	pb, _ := s.CreatePartition("gpu", "gpu0", []byte("v1"))
	k.Spawn("test", func(proc *sim.Proc) {
		s.Fail(pb, FailPanic)
		// Update while already failing is refused; the pending image
		// must not silently apply at the in-flight restart.
		if rec := s.UpdateMOS(pb, []byte("v2")); rec != nil {
			t.Error("update accepted while partition failing")
		}
		s.AwaitReady(proc, pb)
		if pb.MOSHash() != attest.Measure([]byte("v1")) {
			t.Error("pending image leaked into the crash recovery")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
