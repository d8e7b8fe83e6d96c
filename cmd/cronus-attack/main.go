// Command cronus-attack demonstrates CRONUS's security isolation (R3.2):
// it plays the malicious normal OS from the threat model (§III-B) against a
// live platform — misrouting enclave requests, swapping the owner's key in
// an enclave create, tampering / replaying RPC establishment traffic,
// forging local attestation, invoking mECalls without ownership,
// substituting a crashed mOS — and reports that every attack is defeated,
// each by the typed refusal (errors.Is) of its check.
package main

import (
	"errors"
	"fmt"
	"os"
	"strings"

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

type attack struct {
	name string
	run  func(pl *core.Platform, p *sim.Proc) (defended bool, detail string)
}

func cudaManifest() (enclave.Manifest, map[string][]byte) {
	files := map[string][]byte{
		"cuda.edl":  driver.CUDAEDL(),
		"app.cubin": gpu.BuildCubin("vec_add"),
	}
	return enclave.NewManifest("gpu", "cuda.edl", "app.cubin", files, enclave.Resources{Memory: "16M"}), files
}

func attacks() []attack {
	return []attack{
		{"misroute enclave creation to the wrong partition", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			man, files := cudaManifest()
			dh, _ := attest.NewDHKey([]byte("atk-misroute"))
			_, err := pl.D.CreateEnclaveAt(p, "cpu-part", "mis", man, files, dh.Pub)
			if errors.Is(err, mos.ErrWrongPartition) {
				return true, "mOS rejected the manifest/device mismatch"
			}
			return false, fmt.Sprintf("err=%v", err)
		}},
		{"invoke an mECall without knowing secret_dhke", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			man, files := cudaManifest()
			dh, _ := attest.NewDHKey([]byte("atk-owner"))
			res, err := pl.D.CreateEnclave(p, "victim", man, files, dh.Pub)
			if err != nil {
				return false, err.Error()
			}
			evil := attest.NewChannel([]byte("guessed"), "owner->enclave")
			_, err = pl.D.InvokeSealed(p, res.EID, mos.SealRequest(evil, new(wire.Encoder), driver.CallMemAlloc, driver.EncodeMemAlloc(64)))
			if errors.Is(err, attest.ErrTampered) {
				return true, "MAC verification rejected the forged call"
			}
			return false, "forged mECall accepted"
		}},
		{"replay a genuine owner's mECall", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			man, files := cudaManifest()
			dh, _ := attest.NewDHKey([]byte("atk-replay"))
			res, err := pl.D.CreateEnclave(p, "victim2", man, files, dh.Pub)
			if err != nil {
				return false, err.Error()
			}
			sec, _ := dh.Shared(res.DHPub)
			tx := attest.NewChannel(sec, "owner->enclave")
			msg := mos.SealRequest(tx, new(wire.Encoder), driver.CallMemAlloc, driver.EncodeMemAlloc(64))
			if _, err := pl.D.InvokeSealed(p, res.EID, msg); err != nil {
				return false, "genuine call failed: " + err.Error()
			}
			if _, err := pl.D.InvokeSealed(p, res.EID, msg); errors.Is(err, attest.ErrReplayed) {
				return true, "sequence check rejected the replay"
			}
			return false, "replay accepted"
		}},
		{"tamper with sRPC stream establishment", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			pl.D.TamperSetup = func(m attest.SealedMsg) attest.SealedMsg {
				if len(m.Payload) > 0 {
					m.Payload[0] ^= 0xff
				}
				return m
			}
			defer func() { pl.D.TamperSetup = nil }()
			s, err := pl.NewSession(p, "atk-tamper")
			if err != nil {
				return false, err.Error()
			}
			_, err = s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
			if errors.Is(err, attest.ErrTampered) {
				return true, "establishment failed safe: " + firstLine(err)
			}
			return false, "tampered setup accepted"
		}},
		{"swap the owner's DH key in an mEnclave create", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			s, err := pl.NewSession(p, "atk-mitm")
			if err != nil {
				return false, err.Error()
			}
			mitm, _ := attest.NewDHKey([]byte("atk-mitm"))
			pl.D.TamperCreate = func([]byte) []byte { return mitm.Pub }
			defer func() { pl.D.TamperCreate = nil }()
			before := s.Owner().MemUsed()
			_, err = s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
			if !errors.Is(err, attest.ErrTampered) {
				return false, fmt.Sprintf("err=%v", err)
			}
			if after := s.Owner().MemUsed(); after != before {
				return false, fmt.Sprintf("refused open left the owner's memory at %d B, %d B before", after, before)
			}
			return true, "the mOS agreed secret_dhke with the OS's key; stream setup failed its MAC: " + firstLine(err)
		}},
		{"forge a local attestation report", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			pl.D.FakeLocalReport = func(eid uint32, nonce uint64) (attest.LocalReport, []byte) {
				r := attest.LocalReport{EnclaveID: eid, Nonce: nonce}
				return r, attest.NewLocalSealer([]byte("not-the-LSK")).Seal(r)
			}
			defer func() { pl.D.FakeLocalReport = nil }()
			s, err := pl.NewSession(p, "atk-forge")
			if err != nil {
				return false, err.Error()
			}
			_, err = s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
			if errors.Is(err, srpc.ErrForgedReport) {
				return true, "LSK verification failed the forged report"
			}
			return false, "forged local report accepted"
		}},
		{"crash a partition mid-stream (TOCTOU / substitution window)", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			s, err := pl.NewSession(p, "atk-crash")
			if err != nil {
				return false, err.Error()
			}
			conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
			if err != nil {
				return false, err.Error()
			}
			pl.SPM.Fail(pl.GPUs[0].Part, spm.FailPanic)
			_, err = conn.MemAlloc(p, 64)
			if errors.Is(err, srpc.ErrPeerFailed) {
				return true, "owner trapped and the stream tore down; no data reached the substituted partition"
			}
			return false, fmt.Sprintf("err=%v", err)
		}},
		{"remote attestation of a substituted enclave image", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			s, err := pl.NewSession(p, "atk-subst")
			if err != nil {
				return false, err.Error()
			}
			if _, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")}); err != nil {
				return false, err.Error()
			}
			// The client pins the expected image hash; the platform
			// report carries the measured one; a mismatch means the
			// report (honest) reveals the substitution.
			dt := pl.SPM.DTHash()
			want := attest.Expected{
				EnclaveHashes: map[string]attest.Measurement{
					"atk-subst/cuda": attest.Measure([]byte("the image the client reviewed")),
				},
				DTHash: &dt,
				Nonce:  1,
			}
			if err := pl.RemoteAttest(p, 1, want); errors.Is(err, attest.ErrMeasurementMismatch) {
				return true, "verifier rejected the measurement mismatch"
			}
			return false, "substituted image attested"
		}},
	}
}

func firstLine(err error) string {
	line, _, _ := strings.Cut(err.Error(), "\n")
	return line
}

func main() {
	failures := 0
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		fmt.Println("CRONUS attack harness — playing the malicious normal OS (§III-B)")
		fmt.Println()
		for i, a := range attacks() {
			ok, detail := a.run(pl, p)
			status := "DEFENDED"
			if !ok {
				status = "BREACHED"
				failures++
			}
			fmt.Printf("%d. %-55s [%s]\n   %s\n", i+1, a.name, status, detail)
			// Recover the platform between attacks if needed.
			pl.SPM.AwaitReady(p, pl.GPUs[0].Part)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cronus-attack: %v\n", err)
		os.Exit(1)
	}
	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d attack(s) breached the platform\n", failures)
		os.Exit(1)
	}
	fmt.Println("all attacks defeated (R3.2 holds)")
}
