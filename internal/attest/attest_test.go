package attest

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestKeyFromSeedDeterministic(t *testing.T) {
	a := KeyFromSeed([]byte("seed"))
	b := KeyFromSeed([]byte("seed"))
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different keys")
	}
	c := KeyFromSeed([]byte("other"))
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same key")
	}
	msg := []byte("measurement")
	if !Verify(a.Public().(PublicKey), msg, Sign(a, msg)) {
		t.Fatal("self signature failed")
	}
}

func TestReportEncodeCanonical(t *testing.T) {
	r1 := Report{
		MOSHashes:     map[string]Measurement{"p1": Measure([]byte("a")), "p2": Measure([]byte("b"))},
		EnclaveHashes: map[string]Measurement{"e1": Measure([]byte("c"))},
		DTHash:        Measure([]byte("dt")),
		DeviceKeys:    map[string]PublicKey{"gpu0": KeyFromSeed([]byte("g")).Public().(PublicKey)},
		Nonce:         7,
	}
	// Same content, maps built in a different order.
	r2 := Report{
		MOSHashes:     map[string]Measurement{"p2": Measure([]byte("b")), "p1": Measure([]byte("a"))},
		EnclaveHashes: map[string]Measurement{"e1": Measure([]byte("c"))},
		DTHash:        Measure([]byte("dt")),
		DeviceKeys:    map[string]PublicKey{"gpu0": KeyFromSeed([]byte("g")).Public().(PublicKey)},
		Nonce:         7,
	}
	if !bytes.Equal(r1.Encode(), r2.Encode()) {
		t.Fatal("encoding not canonical")
	}
	r2.Nonce = 8
	if bytes.Equal(r1.Encode(), r2.Encode()) {
		t.Fatal("nonce not covered by encoding")
	}
}

// buildChain assembles a full valid attestation chain and returns the
// pieces so tests can corrupt individual links.
func buildChain(t *testing.T, nonce uint64) (*Verifier, *SignedReport, Expected) {
	t.Helper()
	svc := NewService([]byte("svc"))
	rotPriv := KeyFromSeed([]byte("platform-rot"))
	rotPub := rotPriv.Public().(PublicKey)
	svc.RegisterPlatform(rotPub)

	// Secure monitor derives AtK and proves it with the RoT.
	atkPriv := KeyFromSeed([]byte("atk"))
	atkPub := atkPriv.Public().(PublicKey)
	atkCert, err := svc.EndorseAtK(rotPub, atkPub, Sign(rotPriv, atkPub))
	if err != nil {
		t.Fatal(err)
	}

	// GPU vendor endorses the device key.
	ca := NewVendorCA("nvidia")
	devPriv := KeyFromSeed([]byte("gpu0-fuse"))
	devPub := devPriv.Public().(PublicKey)

	report := Report{
		MOSHashes:     map[string]Measurement{"gpu-part": Measure([]byte("gpu mOS image"))},
		EnclaveHashes: map[string]Measurement{"cuda-e": Measure([]byte("cuda runtime+cubin"))},
		DTHash:        Measure([]byte("device tree")),
		DeviceKeys:    map[string]PublicKey{"gpu0": devPub},
		Nonce:         nonce,
	}
	sr := &SignedReport{
		Report:        report,
		Sig:           Sign(atkPriv, report.Encode()),
		AtK:           atkPub,
		AtKCert:       atkCert,
		DeviceCerts:   map[string][]byte{"gpu0": ca.EndorseDevice(devPub)},
		DeviceVendors: map[string]string{"gpu0": "nvidia"},
	}
	v := NewVerifier(svc.Identity)
	v.TrustVendor("nvidia", ca.Identity)
	want := Expected{
		MOSHashes:     map[string]Measurement{"gpu-part": Measure([]byte("gpu mOS image"))},
		EnclaveHashes: map[string]Measurement{"cuda-e": Measure([]byte("cuda runtime+cubin"))},
		Nonce:         nonce,
	}
	return v, sr, want
}

func TestVerifyReportFullChain(t *testing.T) {
	v, sr, want := buildChain(t, 42)
	if err := v.VerifyReport(sr, want); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyReportRejectsTamperedMOS(t *testing.T) {
	v, sr, want := buildChain(t, 1)
	// Substituted mOS: report hash differs from the pinned one.
	sr.Report.MOSHashes["gpu-part"] = Measure([]byte("malicious mOS"))
	sr.Sig = nil // attacker cannot re-sign
	if err := v.VerifyReport(sr, want); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered report: %v, want %v", err, ErrBadSignature)
	}
}

func TestVerifyReportRejectsStaleNonce(t *testing.T) {
	v, sr, want := buildChain(t, 1)
	want.Nonce = 2 // client issued a fresh challenge; replayed old report
	if err := v.VerifyReport(sr, want); !errors.Is(err, ErrStaleNonce) {
		t.Fatalf("replayed report: %v, want %v", err, ErrStaleNonce)
	}
}

func TestVerifyReportRejectsFabricatedDevice(t *testing.T) {
	v, sr, want := buildChain(t, 1)
	// Fabricated accelerator: key not endorsed by any trusted vendor.
	fake := KeyFromSeed([]byte("fake-gpu")).Public().(PublicKey)
	sr.Report.DeviceKeys["gpu0"] = fake
	// Attacker re-signs with... nothing; but even if the report were
	// re-signed, the device cert would not verify. Simulate the stronger
	// attacker who controls AtK-signed content by rebuilding the sig with
	// a bogus AtK — the service endorsement then fails instead.
	if err := v.VerifyReport(sr, want); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("fabricated device: %v, want %v", err, ErrBadSignature)
	}
}

func TestVerifyReportRejectsUntrustedVendor(t *testing.T) {
	v, sr, want := buildChain(t, 1)
	sr.DeviceVendors["gpu0"] = "knockoff-inc"
	if err := v.VerifyReport(sr, want); !errors.Is(err, ErrUntrustedVendor) {
		t.Fatalf("untrusted vendor: %v, want %v", err, ErrUntrustedVendor)
	}
}

func TestServiceRejectsUnknownRoT(t *testing.T) {
	svc := NewService([]byte("svc"))
	rogue := KeyFromSeed([]byte("rogue-rot"))
	atk := KeyFromSeed([]byte("atk")).Public().(PublicKey)
	_, err := svc.EndorseAtK(rogue.Public().(PublicKey), atk, Sign(rogue, atk))
	if err == nil {
		t.Fatal("service endorsed AtK from unregistered platform")
	}
}

func TestServiceRejectsUnprovenAtK(t *testing.T) {
	svc := NewService([]byte("svc"))
	rot := KeyFromSeed([]byte("rot"))
	svc.RegisterPlatform(rot.Public().(PublicKey))
	atk := KeyFromSeed([]byte("atk")).Public().(PublicKey)
	if _, err := svc.EndorseAtK(rot.Public().(PublicKey), atk, []byte("garbage")); err == nil {
		t.Fatal("service endorsed AtK without RoT proof")
	}
}

func TestDHKeyAgreement(t *testing.T) {
	a, err := NewDHKey([]byte("enclave-a"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDHKey([]byte("enclave-b"))
	if err != nil {
		t.Fatal(err)
	}
	sab, err := a.Shared(b.Pub)
	if err != nil {
		t.Fatal(err)
	}
	sba, err := b.Shared(a.Pub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sab, sba) {
		t.Fatal("shared secrets differ")
	}
	c, _ := NewDHKey([]byte("eve"))
	sec, _ := c.Shared(a.Pub)
	if bytes.Equal(sec, sab) {
		t.Fatal("third party derived the same secret")
	}
}

func TestChannelSealOpenRoundTrip(t *testing.T) {
	secret := []byte("secret_dhke-material-32-bytes!!!")
	tx := NewChannel(secret, "a->b")
	rx := NewChannel(secret, "a->b")
	for i := 0; i < 5; i++ {
		m := tx.Seal([]byte{byte(i)})
		got, err := rx.Open(m)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("payload %d mangled", i)
		}
	}
}

func TestChannelDetectsTampering(t *testing.T) {
	secret := []byte("k")
	tx := NewChannel(secret, "a->b")
	rx := NewChannel(secret, "a->b")
	m := tx.Seal([]byte("params"))
	m.Payload = []byte("PARAMS") // attacker flips the RPC arguments
	if _, err := rx.Open(m); !errors.Is(err, ErrTampered) {
		t.Fatalf("err = %v, want ErrTampered", err)
	}
}

func TestChannelDetectsReplayReorderDrop(t *testing.T) {
	secret := []byte("k")
	tx := NewChannel(secret, "a->b")
	rx := NewChannel(secret, "a->b")
	m1 := tx.Seal([]byte("1"))
	m2 := tx.Seal([]byte("2"))
	m3 := tx.Seal([]byte("3"))
	if _, err := rx.Open(m1); err != nil {
		t.Fatal(err)
	}
	// Replay.
	if _, err := rx.Open(m1); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay: err = %v", err)
	}
	// Reorder (m3 before m2) — also covers drop of m2.
	if _, err := rx.Open(m3); !errors.Is(err, ErrReplayed) {
		t.Fatalf("reorder: err = %v", err)
	}
	if _, err := rx.Open(m2); err != nil {
		t.Fatal(err)
	}
}

func TestChannelDirectionLabelsIndependent(t *testing.T) {
	secret := []byte("k")
	ab := NewChannel(secret, "a->b")
	ba := NewChannel(secret, "b->a")
	m := ab.Seal([]byte("hello"))
	// Splicing a message from the a->b direction into b->a must fail.
	if _, err := ba.Open(m); !errors.Is(err, ErrTampered) {
		t.Fatalf("cross-direction splice: err = %v", err)
	}
}

func TestLocalSealer(t *testing.T) {
	lsk := NewLocalSealer([]byte("platform-fuse"))
	r := LocalReport{EnclaveID: 0x01000002, EnclaveHash: Measure([]byte("e")), MOSHash: Measure([]byte("m")), Nonce: 9}
	mac := lsk.Seal(r)
	if !lsk.Verify(r, mac) {
		t.Fatal("genuine local report rejected")
	}
	r2 := r
	r2.EnclaveID = 0x02000001 // different partition claims the identity
	if lsk.Verify(r2, mac) {
		t.Fatal("forged local report accepted")
	}
	other := NewLocalSealer([]byte("other-machine"))
	if other.Verify(r, mac) {
		t.Fatal("report from another machine accepted (co-location check broken)")
	}
}

// Property: Channel round-trips arbitrary payloads and never accepts a
// bit-flipped MAC.
func TestChannelQuickProperty(t *testing.T) {
	f := func(payload []byte, flip uint8) bool {
		secret := []byte("property-secret")
		tx := NewChannel(secret, "p")
		rx := NewChannel(secret, "p")
		m := tx.Seal(payload)
		good, err := rx.Open(m)
		if err != nil || !bytes.Equal(good, payload) {
			return false
		}
		m2 := tx.Seal(payload)
		m2.MAC[int(flip)%len(m2.MAC)] ^= 0x80
		_, err = rx.Open(m2)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
