package attest

import (
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// This file implements the two communication-security building blocks of
// §IV-A/§IV-C: the Diffie-Hellman secret (secret_dhke) established at
// mEnclave creation, and MAC-protected sequenced messages for everything
// that travels through untrusted memory before trusted shared memory exists.

// DHKey is one side of an X25519 exchange.
type DHKey struct {
	priv *ecdh.PrivateKey
	Pub  []byte
}

// NewDHKey derives a deterministic X25519 key from seed material.
func NewDHKey(seed []byte) (*DHKey, error) {
	h := sha256.Sum256(append([]byte("dhke/"), seed...))
	priv, err := ecdh.X25519().NewPrivateKey(h[:])
	if err != nil {
		return nil, fmt.Errorf("attest: dh key: %w", err)
	}
	return &DHKey{priv: priv, Pub: priv.PublicKey().Bytes()}, nil
}

// Shared computes the shared secret with the peer's public key.
func (k *DHKey) Shared(peerPub []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("attest: peer dh key: %w", err)
	}
	s, err := k.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("attest: dh agree: %w", err)
	}
	d := sha256.Sum256(s) // KDF
	return d[:], nil
}

// SealedMsg is a MAC'd, sequence-numbered message for untrusted channels.
// Payload is carried by reference: Seal does not copy it and Open returns it,
// so whoever holds the message owns those bytes and must not change them
// while the message is in flight (a change is what the MAC exists to catch).
type SealedMsg struct {
	Seq     uint64
	Payload []byte
	MAC     [sha256.Size]byte
}

// Channel provides ordered, integrity-protected messaging over an untrusted
// transport using secret_dhke. It defeats the §III-B attacks on untrusted
// memory: tampering (MAC), replay and reorder (strictly increasing sequence
// numbers), and cross-channel splicing (per-direction labels).
type Channel struct {
	// mac is HMAC-SHA256 keyed with the channel key, built once: Reset
	// rewinds it to the keyed state, which costs two block copies instead
	// of the two SHA-256 states and key schedule hmac.New pays per message.
	mac     hash.Hash
	label   string
	sendSeq uint64
	recvSeq uint64
	// seq and tag are sum's input word and output: written and read within
	// one sum, so they live here rather than escaping from its frame
	// through the hash.Hash calls on every message.
	seq [8]byte
	tag [sha256.Size]byte
}

// NewChannel builds a directional channel. Both sides must construct the
// send direction with the same label the receiver uses for its receive
// direction; conventionally "a->b" and "b->a".
func NewChannel(secret []byte, label string) *Channel {
	return newChannel(hmac.New(sha256.New, secret), label)
}

// NewChannelPair builds the two directions of one link, labelled a and b,
// with one keyed KDF: each channel's key is exactly NewChannel's.
func NewChannelPair(secret []byte, a, b string) (*Channel, *Channel) {
	kdf := hmac.New(sha256.New, secret)
	ca := newChannel(kdf, a)
	kdf.Reset()
	return ca, newChannel(kdf, b)
}

// newChannel derives the channel key for label with kdf, HMAC keyed with
// the secret and at its keyed state.
func newChannel(kdf hash.Hash, label string) *Channel {
	kdf.Write([]byte("channel/"))
	kdf.Write([]byte(label))
	return &Channel{mac: hmac.New(sha256.New, kdf.Sum(nil)), label: label}
}

// sum computes HMAC(key, seq ‖ payload), the tag of one message.
func (c *Channel) sum(seq uint64, payload []byte) [sha256.Size]byte {
	binary.LittleEndian.PutUint64(c.seq[:], seq)
	c.mac.Reset()
	c.mac.Write(c.seq[:])
	c.mac.Write(payload)
	c.mac.Sum(c.tag[:0])
	return c.tag
}

// Seal wraps a payload for sending. The message takes the payload by
// reference (see SealedMsg).
func (c *Channel) Seal(payload []byte) SealedMsg {
	mChannelSeals.Inc()
	c.sendSeq++
	return SealedMsg{Seq: c.sendSeq, Payload: payload, MAC: c.sum(c.sendSeq, payload)}
}

// ErrTampered reports a MAC failure.
var ErrTampered = errors.New("attest: message MAC invalid (tampered or wrong peer)")

// ErrReplayed reports a sequence violation (replayed, reordered or dropped
// traffic).
var ErrReplayed = errors.New("attest: message sequence violation (replay/reorder/drop)")

// Open verifies a received message, enforcing exactly-once in-order
// delivery, and returns its payload (m.Payload itself, not a copy).
func (c *Channel) Open(m SealedMsg) ([]byte, error) {
	want := c.sum(m.Seq, m.Payload)
	if !hmac.Equal(m.MAC[:], want[:]) {
		return nil, ErrTampered
	}
	if m.Seq != c.recvSeq+1 {
		return nil, fmt.Errorf("%w: got seq %d, want %d", ErrReplayed, m.Seq, c.recvSeq+1)
	}
	c.recvSeq = m.Seq
	mChannelOpens.Inc()
	return m.Payload, nil
}

// LocalSealer is the SPM-held local seal key (LSK) used for local
// attestation between mEnclaves on the same machine (§IV-A). Only code
// running in the secure world ever holds a *LocalSealer.
type LocalSealer struct {
	// mac is HMAC-SHA256 keyed with the LSK, built once and Reset per
	// report, as Channel's is.
	mac hash.Hash
	// buf is one report's encoding, written and hashed within one seal.
	buf [localReportSize]byte
}

// NewLocalSealer derives the LSK from platform fuse material.
func NewLocalSealer(seed []byte) *LocalSealer {
	h := sha256.Sum256(append([]byte("lsk/"), seed...))
	return &LocalSealer{mac: hmac.New(sha256.New, h[:])}
}

// LocalReport identifies an mEnclave to a co-located challenger.
type LocalReport struct {
	EnclaveID   uint32
	EnclaveHash Measurement
	MOSHash     Measurement
	Nonce       uint64
}

// localReportSize is the length of a LocalReport's encoding.
const localReportSize = 4 + 32 + 32 + 8

// encode writes the report's fixed-layout encoding into buf.
func (r *LocalReport) encode(buf *[localReportSize]byte) []byte {
	binary.LittleEndian.PutUint32(buf[0:], r.EnclaveID)
	copy(buf[4:], r.EnclaveHash[:])
	copy(buf[36:], r.MOSHash[:])
	binary.LittleEndian.PutUint64(buf[68:], r.Nonce)
	return buf[:]
}

// Seal MACs a local report with the LSK. The tag is the caller's.
func (s *LocalSealer) Seal(r LocalReport) []byte {
	mLocalSeals.Inc()
	return s.seal(r, nil)
}

// seal appends the report's tag to dst.
func (s *LocalSealer) seal(r LocalReport, dst []byte) []byte {
	s.mac.Reset()
	s.mac.Write(r.encode(&s.buf))
	return s.mac.Sum(dst)
}

// Verify checks that a local report was sealed by this machine's SPM.
func (s *LocalSealer) Verify(r LocalReport, mac []byte) bool {
	var tag [sha256.Size]byte
	return hmac.Equal(mac, s.seal(r, tag[:0]))
}
