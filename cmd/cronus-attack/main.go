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

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/normal"
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
			_, _, err := openUnder(pl, p, "atk-tamper", spm.CallStreamSetup, func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
				c.Msg.Payload = append([]byte(nil), c.Msg.Payload...)
				c.Msg.Payload[0] ^= 0xff
				return gate(p, c)
			})
			if errors.Is(err, attest.ErrTampered) {
				return true, "establishment failed safe: " + err.Error()
			}
			return false, "tampered setup accepted"
		}},
		{"swap the owner's DH key in an mEnclave create", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			mitm, _ := attest.NewDHKey([]byte("atk-mitm"))
			s, _, err := openUnder(pl, p, "atk-mitm", spm.CallCreate, func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
				c.DHPub = mitm.Pub
				return gate(p, c)
			})
			if !errors.Is(err, attest.ErrTampered) {
				return false, fmt.Sprintf("err=%v", err)
			}
			if used := s.Owner().MemUsed(); used != 0 { // a new session's enclave shares no pages
				return false, fmt.Sprintf("refused open left %d B of the owner's memory in use", used)
			}
			return true, "the mOS agreed secret_dhke with the OS's key; stream setup failed its MAC: " + err.Error()
		}},
		{"forge a local attestation report", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			_, _, err := openUnder(pl, p, "atk-forge", spm.CallLocalReport, func(_ *sim.Proc, c spm.Call, _ normal.Gate) (spm.Reply, error) {
				r := attest.LocalReport{EnclaveID: c.EID, Nonce: c.Nonce}
				return spm.Reply{Local: r, MAC: attest.NewLocalSealer([]byte("not-the-LSK")).Seal(r)}, nil
			})
			if errors.Is(err, srpc.ErrForgedReport) {
				return true, "LSK verification failed the forged report"
			}
			return false, "forged local report accepted"
		}},
		{"crash a partition mid-stream (TOCTOU / substitution window)", func(pl *core.Platform, p *sim.Proc) (bool, string) {
			_, conn, err := openUnder(pl, p, "atk-crash", 0, nil)
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
			if _, _, err := openUnder(pl, p, "atk-subst", 0, nil); err != nil {
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

// openUnder opens a CUDA mEnclave from a new session while the normal OS
// plays f, if any, on every call of kind and relays the others untouched.
func openUnder(pl *core.Platform, p *sim.Proc, name string, kind spm.CallKind, f normal.RelayFunc) (*core.Session, *core.CUDAConn, error) {
	s, err := pl.NewSession(p, name)
	if err != nil {
		return nil, nil, err
	}
	if f != nil {
		pl.D.Adversary = normal.RelayFunc(func(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
			if c.Kind != kind {
				return gate(p, c)
			}
			return f(p, c, gate)
		})
		defer func() { pl.D.Adversary = nil }()
	}
	conn, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
	return s, conn, err
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
