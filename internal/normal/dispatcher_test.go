package normal_test

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
	"cronus/internal/normal"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

func gpuManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"cuda.edl":  driver.CUDAEDL(),
		"app.cubin": gpu.BuildCubin("vec_add"),
	}
	return enclave.NewManifest("gpu", "cuda.edl", "app.cubin", files, enclave.Resources{Memory: "16M"}), files
}

func npuManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{"npu.edl": driver.NPUEDL()}
	return enclave.NewManifest("npu", "npu.edl", "", files, enclave.Resources{Memory: "16M"}), files
}

func TestRoutingByDeviceType(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		dh, _ := attest.NewDHKey([]byte("r"))
		gman, gfiles := gpuManifest()
		res, err := d.CreateEnclave(p, "g", gman, gfiles, dh.Pub)
		if err != nil {
			return err
		}
		if uint32(res.EID>>24) != uint32(pl.GPUs[0].Part.ID) {
			t.Errorf("gpu manifest routed to partition %d", res.EID>>24)
		}
		nman, nfiles := npuManifest()
		res2, err := d.CreateEnclave(p, "n", nman, nfiles, dh.Pub)
		if err != nil {
			return err
		}
		if uint32(res2.EID>>24) != uint32(pl.NPUs[0].Part.ID) {
			t.Errorf("npu manifest routed to partition %d", res2.EID>>24)
		}
		// The dispatcher registered sRPC endpoints for both.
		if pl.Server(res.EID) == nil || pl.Server(res2.EID) == nil {
			t.Error("missing sRPC endpoints")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoutingUnknownDeviceType(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		files := map[string][]byte{"f.edl": enclave.BuildEDL()}
		man := enclave.NewManifest("fpga", "f.edl", "", files, enclave.Resources{})
		dh, _ := attest.NewDHKey([]byte("r"))
		_, err := d.CreateEnclave(p, "f", man, files, dh.Pub)
		if !errors.Is(err, spm.ErrNoPartition) || !strings.Contains(err.Error(), "no partition hosts") {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRouteOverrideIsMaliciousButHarmless(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		// The malicious OS redirects GPU requests to the NPU partition;
		// the mOS's device-type check stops it (§III-B).
		d.Adversary = normal.RelayFunc(func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
			c.Part = pl.NPUs[0].Part.ID
			return gate(p, c)
		})
		dh, _ := attest.NewDHKey([]byte("r"))
		gman, gfiles := gpuManifest()
		_, err := d.CreateEnclave(p, "g", gman, gfiles, dh.Pub)
		if !errors.Is(err, mos.ErrWrongPartition) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateEnclaveAtUnknownPartition(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		dh, _ := attest.NewDHKey([]byte("r"))
		gman, gfiles := gpuManifest()
		if _, err := d.CreateEnclaveAt(p, "mars-part", "g", gman, gfiles, dh.Pub); !errors.Is(err, spm.ErrNoPartition) {
			t.Error("unknown partition accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinAcrossSameTypePartitions(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.GPUs = 2
	err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		dh, _ := attest.NewDHKey([]byte("r"))
		gman, gfiles := gpuManifest()
		seen := map[uint32]bool{}
		for i := 0; i < 4; i++ {
			res, err := d.CreateEnclave(p, "g", gman, gfiles, dh.Pub)
			if err != nil {
				return err
			}
			seen[res.EID>>24] = true
		}
		if len(seen) != 2 {
			t.Errorf("round robin used %d partitions, want 2", len(seen))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvokeSealedToUnknownEID(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		_, err := d.InvokeSealed(p, 0xFF000001, attest.SealedMsg{})
		if !errors.Is(err, spm.ErrNoPartition) {
			t.Error("invoke to unknown partition accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildReportAggregatesAllPartitions(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		d := pl.D
		dh, _ := attest.NewDHKey([]byte("r"))
		gman, gfiles := gpuManifest()
		if _, err := d.CreateEnclave(p, "report-e", gman, gfiles, dh.Pub); err != nil {
			return err
		}
		sr, err := d.BuildReport(p, 9)
		if err != nil {
			return err
		}
		if len(sr.Report.MOSHashes) != 3 {
			t.Errorf("report covers %d mOSes, want 3", len(sr.Report.MOSHashes))
		}
		if _, ok := sr.Report.EnclaveHashes["report-e"]; !ok {
			t.Error("enclave missing from report")
		}
		dt := pl.SPM.DTHash()
		if err := pl.Verifier.VerifyReport(sr, attest.Expected{DTHash: &dt, Nonce: 9}); err != nil {
			t.Errorf("verification failed: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
