package provision_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/provision"
	"cronus/internal/sim"
)

// attestedPair spins up a platform, attests it, and returns a bound client
// and the matching enclave-side receiver.
func attestedPair(t *testing.T) (*provision.Client, *provision.Receiver) {
	t.Helper()
	var client *provision.Client
	var recv *provision.Receiver
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		var err error
		client, recv, err = bind(pl, p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, recv
}

// bind attests pl from a fresh session and returns a bound client and the
// matching enclave-side receiver.
func bind(pl *core.Platform, p *sim.Proc) (*provision.Client, *provision.Receiver, error) {
	s, err := pl.NewSession(p, "prov")
	if err != nil {
		return nil, nil, err
	}
	client, err := provision.NewClient([]byte("user-7"), pl.Verifier, pl.Costs)
	if err != nil {
		return nil, nil, err
	}
	// The session enclave's provisioning key (held in the secure
	// world; the seed stands for enclave-private entropy).
	enclaveSeed := []byte("session-enclave-provision-key")
	pub, err := provision.EnclavePub(enclaveSeed)
	if err != nil {
		return nil, nil, err
	}
	dt := pl.SPM.DTHash()
	report := pl.D.BuildReport(p, 5)
	want := attest.Expected{
		EnclaveHashes: s.EnclaveMeasurements(),
		DTHash:        &dt,
		Nonce:         5,
	}
	if err := client.VerifyAndBind(report, want, pub); err != nil {
		return nil, nil, err
	}
	recv, err := provision.NewReceiver(enclaveSeed, client.Pub(), pl.Costs)
	return client, recv, err
}

// Sealing and opening are charged at the platform's cost model, not at a
// second calibration: on a platform whose AES costs three times the default,
// each takes Encrypt of its bytes at those costs.
func TestSealAndOpenChargeThePlatformsCosts(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Costs = sim.DefaultCosts()
	cfg.Costs.AESFixed *= 3
	cfg.Costs.AESPerByte *= 3
	err := core.Run(cfg, func(pl *core.Platform, p *sim.Proc) error {
		client, recv, err := bind(pl, p)
		if err != nil {
			return err
		}
		data := make([]byte, 4096)
		start := p.Now()
		blob, err := client.Seal(p, data)
		if err != nil {
			return err
		}
		if got, want := sim.Duration(p.Now()-start), cfg.Costs.Encrypt(len(data)); got != want {
			t.Errorf("Seal took %v, want %v", got, want)
		}
		start = p.Now()
		if _, err := recv.Open(p, blob); err != nil {
			return err
		}
		if got, want := sim.Duration(p.Now()-start), cfg.Costs.Encrypt(len(blob.Ciphertext)); got != want {
			t.Errorf("Open took %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestProvisionRoundTrip(t *testing.T) {
	client, recv := attestedPair(t)
	data := []byte("training labels: cat, dog, cat, bird")
	blob, err := client.Seal(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := recv.Open(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, data) {
		t.Fatal("plaintext mangled")
	}
}

func TestSealRefusedBeforeAttestation(t *testing.T) {
	v := attest.NewVerifier(attest.KeyFromSeed([]byte("svc")).Public().(attest.PublicKey))
	c, err := provision.NewClient([]byte("u"), v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(nil, []byte("secret")); !errors.Is(err, provision.ErrNotAttested) {
		t.Fatalf("err = %v, want ErrNotAttested", err)
	}
}

func TestBindRefusedOnBadReport(t *testing.T) {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		client, err := provision.NewClient([]byte("u"), pl.Verifier, pl.Costs)
		if err != nil {
			return err
		}
		report := pl.D.BuildReport(p, 1)
		// Client pins a different enclave hash (substituted image).
		want := attest.Expected{
			EnclaveHashes: map[string]attest.Measurement{"x": attest.Measure([]byte("other"))},
			Nonce:         1,
		}
		pub, _ := provision.EnclavePub([]byte("seed"))
		if err := client.VerifyAndBind(report, want, pub); err == nil {
			t.Error("client released its key to an unattested platform")
		}
		if _, err := client.Seal(nil, []byte("d")); !errors.Is(err, provision.ErrNotAttested) {
			t.Error("client seals despite failed attestation")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTamperReplayReorderRejected(t *testing.T) {
	client, recv := attestedPair(t)
	b1, _ := client.Seal(nil, []byte("chunk-1"))
	b2, _ := client.Seal(nil, []byte("chunk-2"))
	b3, _ := client.Seal(nil, []byte("chunk-3"))

	// Tamper.
	bad := b1
	bad.Ciphertext = append([]byte{}, b1.Ciphertext...)
	bad.Ciphertext[0] ^= 0xff
	if _, err := recv.Open(nil, bad); !errors.Is(err, provision.ErrDecrypt) {
		t.Fatalf("tampered blob: err = %v", err)
	}
	if _, err := recv.Open(nil, b1); err != nil {
		t.Fatal(err)
	}
	// Replay.
	if _, err := recv.Open(nil, b1); !errors.Is(err, provision.ErrDecrypt) {
		t.Fatal("replayed blob accepted")
	}
	// Reorder (b3 before b2).
	if _, err := recv.Open(nil, b3); !errors.Is(err, provision.ErrDecrypt) {
		t.Fatal("reordered blob accepted")
	}
	if _, err := recv.Open(nil, b2); err != nil {
		t.Fatal(err)
	}
}

func TestEavesdropperCannotDecrypt(t *testing.T) {
	client, _ := attestedPair(t)
	blob, _ := client.Seal(nil, []byte("weights"))
	// The untrusted OS sees the blob but has neither side's private key.
	evil, err := provision.NewReceiver([]byte("attacker guess"), client.Pub(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := evil.Open(nil, blob); err == nil {
		t.Fatal("eavesdropper decrypted the dataset")
	}
}

func TestProvisionQuickProperty(t *testing.T) {
	client, recv := attestedPair(t)
	f := func(data []byte) bool {
		blob, err := client.Seal(nil, data)
		if err != nil {
			return false
		}
		pt, err := recv.Open(nil, blob)
		return err == nil && bytes.Equal(pt, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
