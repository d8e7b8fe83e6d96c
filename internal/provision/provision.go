// Package provision implements the sensitive-data provisioning flow of the
// application workflow (§III-D): after remote attestation succeeds, the
// user derives a session key with the enclave key it is handed (X25519 +
// HKDF-style derivation), encrypts the dataset under AES-GCM, and ships the
// ciphertext through the untrusted world. No report covers that key: binding
// it to the attested enclave is ROADMAP item 22.
package provision

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/sim"
)

// ErrNotAttested reports provisioning attempted before attestation.
var ErrNotAttested = errors.New("provision: session not attested")

// ErrDecrypt reports an undecryptable blob (wrong key or tampered).
var ErrDecrypt = errors.New("provision: cannot decrypt (tampered or wrong enclave)")

// deriveKey binds the data key to the shared secret and a context label.
func deriveKey(shared []byte, label string) []byte {
	m := hmac.New(sha256.New, shared)
	m.Write([]byte("cronus-provision/" + label))
	return m.Sum(nil)
}

// Client is the user side: it refuses to release data until it has verified
// the platform.
type Client struct {
	dh       *attest.DHKey
	verifier *attest.Verifier
	costs    *sim.CostModel
	attested bool
	key      []byte
	seq      uint64
}

// NewClient creates a provisioning client with its own ephemeral key that
// verifies reports with verifier and charges sealing at the platform's costs.
func NewClient(seed []byte, verifier *attest.Verifier, costs *sim.CostModel) (*Client, error) {
	dh, err := attest.NewDHKey(append([]byte("provision-client/"), seed...))
	if err != nil {
		return nil, err
	}
	return &Client{dh: dh, verifier: verifier, costs: costs}, nil
}

// Pub returns the client's key-agreement public key (sent to the enclave).
func (c *Client) Pub() []byte { return c.dh.Pub }

// VerifyAndBind checks the platform report against the pinned expectations
// and only then derives the data key with enclavePub, which no report covers.
func (c *Client) VerifyAndBind(report *attest.SignedReport, want attest.Expected, enclavePub []byte) error {
	if err := c.verifier.VerifyReport(report, want); err != nil {
		return fmt.Errorf("provision: attestation failed, refusing to release data: %w", err)
	}
	shared, err := c.dh.Shared(enclavePub)
	if err != nil {
		return err
	}
	c.key = deriveKey(shared, "dataset")
	c.attested = true
	return nil
}

// Blob is one encrypted dataset chunk travelling through the untrusted
// world.
type Blob struct {
	Seq        uint64
	Nonce      [12]byte
	Ciphertext []byte
}

// Seal encrypts a dataset chunk. It fails before attestation (the client
// never releases plaintext-derived material early).
func (c *Client) Seal(p *sim.Proc, plaintext []byte) (Blob, error) {
	if !c.attested {
		return Blob{}, ErrNotAttested
	}
	c.seq++
	var nonce [12]byte
	binary.LittleEndian.PutUint64(nonce[:8], c.seq)
	block, err := aes.NewCipher(c.key)
	if err != nil {
		return Blob{}, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return Blob{}, err
	}
	if p != nil {
		p.Sleep(c.costs.Encrypt(len(plaintext)))
	}
	ct := gcm.Seal(nil, nonce[:], plaintext, nonce[:8])
	return Blob{Seq: c.seq, Nonce: nonce, Ciphertext: ct}, nil
}

// Receiver is the enclave side: it derives the same key from its own DH key
// and the client's public key, and enforces in-order exactly-once delivery.
type Receiver struct {
	key   []byte
	last  uint64
	costs *sim.CostModel
}

// NewReceiver derives the receiver from the enclave's key-agreement private
// seed and the client's public key; it charges opening at the platform's
// costs. In deployment this runs inside the attested CPU mEnclave.
func NewReceiver(enclaveSeed, clientPub []byte, costs *sim.CostModel) (*Receiver, error) {
	dh, err := attest.NewDHKey(enclaveSeed)
	if err != nil {
		return nil, err
	}
	shared, err := dh.Shared(clientPub)
	if err != nil {
		return nil, err
	}
	return &Receiver{key: deriveKey(shared, "dataset"), costs: costs}, nil
}

// EnclavePub returns the public half the client binds against.
func EnclavePub(enclaveSeed []byte) ([]byte, error) {
	dh, err := attest.NewDHKey(enclaveSeed)
	if err != nil {
		return nil, err
	}
	return dh.Pub, nil
}

// Open decrypts a blob, rejecting tampering, replay and reordering.
func (r *Receiver) Open(p *sim.Proc, b Blob) ([]byte, error) {
	if b.Seq != r.last+1 {
		return nil, fmt.Errorf("%w: sequence %d, want %d", ErrDecrypt, b.Seq, r.last+1)
	}
	block, err := aes.NewCipher(r.key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p.Sleep(r.costs.Encrypt(len(b.Ciphertext)))
	}
	pt, err := gcm.Open(nil, b.Nonce[:], b.Ciphertext, b.Nonce[:8])
	if err != nil {
		return nil, ErrDecrypt
	}
	r.last = b.Seq
	return pt, nil
}
