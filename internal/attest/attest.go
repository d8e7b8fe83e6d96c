// Package attest implements CRONUS's attestation machinery (§IV-A), from
// the one-shot primitives up to the amortization layer that makes
// attestation cheap enough to gate every session at serving scale.
//
// # Primitives
//
// The platform root of trust signs an attestation key (AtK) that a trusted
// attestation Service endorses; the SPM uses the AtK to sign dynamic
// platform Reports covering mOS images, mEnclave measurements, the device
// tree and accelerator keys (each endorsed by its VendorCA). A client-side
// Verifier checks the complete chain against the Expected measurements it
// pinned from the application manifest. Local attestation between
// co-located mEnclaves goes through the SPM-held LocalSealer, and
// Channel/DHKey provide MAC-protected sequenced messaging plus the
// Diffie-Hellman ownership secret for everything crossing untrusted memory.
//
// # Attestation at scale
//
// Three pieces amortize the per-session cost (DESIGN.md §11):
//
//   - TicketCache: a successful dynamic attestation mints a sealed,
//     epoch-bound Ticket keyed by (tenant, partition measurement); later
//     sessions Resume on the ticket and skip the quote round-trip, with
//     deterministic virtual-time TTL expiry and an LRU bound.
//   - VerifyCache: quote verifications are memoized per (measurement,
//     epoch) and identical in-flight verifications coalesce single-flight
//     style, so admission cost is shared across tenants hitting the same
//     partition.
//   - Revocation: when continuous re-measurement catches a stale or
//     flipped measurement, RevokeMeasurement purges the partition's
//     tickets and later lookups shed with the typed *RevokedError.
//
// Signatures are Ed25519; key material is derived deterministically from
// hardware fuse values, and the caches are driven entirely by
// caller-supplied virtual time, so simulations are reproducible
// byte-for-byte. Because a platform's chain is fixed when the machine is
// made, KeyFromSeed, Sign and Verify answer a repeated call over identical
// bytes from one fixed process-wide table (memo.go).
package attest

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// PublicKey is an attestation-capable public key.
type PublicKey = ed25519.PublicKey

// PrivateKey is the corresponding private key.
type PrivateKey = ed25519.PrivateKey

// Measurement is a SHA-256 digest of code or configuration.
type Measurement [32]byte

// Measure hashes a blob into a Measurement.
func Measure(data []byte) Measurement { return sha256.Sum256(data) }

// String renders the first bytes of the digest for logs.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// Report is the platform attestation report (§IV-A):
// ⟨hash(mEnclave), hash(mOS), DT, PubK_acc⟩ plus a client nonce.
type Report struct {
	MOSHashes     map[string]Measurement // partition name -> mOS image hash
	EnclaveHashes map[string]Measurement // enclave id -> runtime+image hash
	DTHash        Measurement            // device tree digest
	DeviceKeys    map[string]PublicKey   // device name -> PubK_acc
	Nonce         uint64                 // client freshness challenge
}

// Encode produces the canonical byte encoding that is signed. It is
// injective: every variable-length field — names and device keys alike — is
// length-prefixed, so no two reports share an encoding and one signature
// covers exactly one report.
func (r *Report) Encode() []byte {
	var buf []byte
	appendStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		buf = append(buf, n[:]...)
		buf = append(buf, s...)
	}
	appendMeasurements := func(m map[string]Measurement) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(keys)))
		buf = append(buf, n[:]...)
		for _, k := range keys {
			appendStr(k)
			h := m[k]
			buf = append(buf, h[:]...)
		}
	}
	appendMeasurements(r.MOSHashes)
	appendMeasurements(r.EnclaveHashes)
	buf = append(buf, r.DTHash[:]...)
	keys := make([]string, 0, len(r.DeviceKeys))
	for k := range r.DeviceKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(keys)))
	buf = append(buf, n[:]...)
	for _, k := range keys {
		appendStr(k)
		appendStr(string(r.DeviceKeys[k]))
	}
	var nn [8]byte
	binary.LittleEndian.PutUint64(nn[:], r.Nonce)
	buf = append(buf, nn[:]...)
	return buf
}

// SignedReport bundles a report with its attestation-key signature and the
// credentials a client needs to verify the chain.
type SignedReport struct {
	Report Report
	Sig    []byte    // AtK signature over Report.Encode()
	AtK    PublicKey // attestation key
	// AtKCert is the attestation service's endorsement of AtK.
	AtKCert []byte
	// DeviceCerts maps device name -> vendor CA endorsement of its key.
	DeviceCerts map[string][]byte
	// DeviceVendors maps device name -> vendor whose CA endorsed it.
	DeviceVendors map[string]string
}

// Service is the (trusted third party) attestation service: it knows which
// platform roots of trust are genuine and endorses attestation keys derived
// from them, mirroring the paper's "AtK is endorsed by the attestation
// service".
type Service struct {
	priv     PrivateKey
	genuine  map[string]bool // string(rot pub) -> genuine
	Identity PublicKey
}

// NewService creates an attestation service with a deterministic identity.
func NewService(seed []byte) *Service {
	priv := KeyFromSeed(append([]byte("attestation-service/"), seed...))
	return &Service{
		priv:     priv,
		genuine:  make(map[string]bool),
		Identity: priv.Public().(PublicKey),
	}
}

// RegisterPlatform marks a platform root-of-trust public key as genuine.
func (s *Service) RegisterPlatform(rot PublicKey) {
	s.genuine[string(rot)] = true
}

// EndorseAtK verifies that atk was signed by a genuine platform RoT and
// returns the service's endorsement of atk.
func (s *Service) EndorseAtK(rot PublicKey, atk PublicKey, rotSig []byte) ([]byte, error) {
	if !s.genuine[string(rot)] {
		return nil, errors.New("attest: unknown platform root of trust")
	}
	if !Verify(rot, atk, rotSig) {
		return nil, errors.New("attest: AtK not proven by platform root of trust")
	}
	return Sign(s.priv, atk), nil
}

// VendorCA is an accelerator vendor's certificate authority endorsing device
// keys (hardware authenticity, §IV-A).
type VendorCA struct {
	Name     string
	priv     PrivateKey
	Identity PublicKey
}

// NewVendorCA creates a deterministic vendor CA.
func NewVendorCA(name string) *VendorCA {
	priv := KeyFromSeed([]byte("vendor-ca/" + name))
	return &VendorCA{Name: name, priv: priv, Identity: priv.Public().(PublicKey)}
}

// EndorseDevice signs a device public key.
func (ca *VendorCA) EndorseDevice(devPub PublicKey) []byte {
	return Sign(ca.priv, devPub)
}

// Verifier is the client side: it trusts the attestation service and a set
// of vendor CAs, and checks full report chains.
type Verifier struct {
	Service   PublicKey
	VendorCAs map[string]PublicKey // vendor name -> CA identity
}

// NewVerifier creates a verifier trusting the given anchors.
func NewVerifier(service PublicKey) *Verifier {
	return &Verifier{Service: service, VendorCAs: make(map[string]PublicKey)}
}

// TrustVendor adds a vendor CA trust anchor.
func (v *Verifier) TrustVendor(name string, ca PublicKey) { v.VendorCAs[name] = ca }

// Expected pins the measurements a client requires, from the application
// manifest it reviewed.
type Expected struct {
	MOSHashes     map[string]Measurement
	EnclaveHashes map[string]Measurement
	DTHash        *Measurement // nil = accept any validated tree
	Nonce         uint64
}

// VerifyReport's refusals, one sentinel per link of the chain; every error
// it returns wraps exactly one of them.
var (
	// ErrAtKNotEndorsed: the attestation service did not endorse the AtK.
	ErrAtKNotEndorsed = errors.New("AtK not endorsed by attestation service")
	// ErrBadSignature: the AtK's signature does not cover the report.
	ErrBadSignature = errors.New("report signature invalid")
	// ErrStaleNonce: the report answers another challenge than the client's.
	ErrStaleNonce = errors.New("stale report")
	// ErrMeasurementMissing: the report lacks an mOS or enclave the client
	// pinned.
	ErrMeasurementMissing = errors.New("report missing")
	// ErrMeasurementMismatch is the refusal of a report whose mOS, enclave
	// or device-tree measurement differs from the one the client pinned:
	// the platform runs an image the client did not review.
	ErrMeasurementMismatch = errors.New("measurement mismatch")
	// ErrUntrustedVendor: a device names a vendor the client trusts no CA of.
	ErrUntrustedVendor = errors.New("untrusted vendor")
	// ErrDeviceNotEndorsed: a device key carries no valid endorsement by its
	// vendor's CA.
	ErrDeviceNotEndorsed = errors.New("key not endorsed by vendor")
)

// VerifyReport checks the complete chain: AtK endorsed by the service, the
// report signed by AtK, nonce freshness, pinned measurements present and
// matching, and every device key endorsed by a trusted vendor CA.
func (v *Verifier) VerifyReport(sr *SignedReport, want Expected) error {
	if !Verify(v.Service, sr.AtK, sr.AtKCert) {
		return fmt.Errorf("attest: %w", ErrAtKNotEndorsed)
	}
	if !Verify(sr.AtK, sr.Report.Encode(), sr.Sig) {
		return fmt.Errorf("attest: %w", ErrBadSignature)
	}
	if sr.Report.Nonce != want.Nonce {
		return fmt.Errorf("attest: %w (nonce %d, want %d)", ErrStaleNonce, sr.Report.Nonce, want.Nonce)
	}
	for name, h := range want.MOSHashes {
		got, ok := sr.Report.MOSHashes[name]
		if !ok {
			return fmt.Errorf("attest: %w mOS %q", ErrMeasurementMissing, name)
		}
		if got != h {
			return fmt.Errorf("attest: mOS %q %w", name, ErrMeasurementMismatch)
		}
	}
	for name, h := range want.EnclaveHashes {
		got, ok := sr.Report.EnclaveHashes[name]
		if !ok {
			return fmt.Errorf("attest: %w enclave %q", ErrMeasurementMissing, name)
		}
		if got != h {
			return fmt.Errorf("attest: enclave %q %w", name, ErrMeasurementMismatch)
		}
	}
	if want.DTHash != nil && sr.Report.DTHash != *want.DTHash {
		return fmt.Errorf("attest: device tree %w", ErrMeasurementMismatch)
	}
	for dev, pub := range sr.Report.DeviceKeys {
		vendor := sr.DeviceVendors[dev]
		ca, ok := v.VendorCAs[vendor]
		if !ok {
			return fmt.Errorf("attest: device %q from %w %q", dev, ErrUntrustedVendor, vendor)
		}
		cert := sr.DeviceCerts[dev]
		if !Verify(ca, pub, cert) {
			return fmt.Errorf("attest: device %q %w %q", dev, ErrDeviceNotEndorsed, vendor)
		}
	}
	mReportsVerified.Inc()
	return nil
}
