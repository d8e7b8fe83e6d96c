package attest

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
)

// A platform's attestation chain is fixed when the machine is made (§IV-A):
// its fuses give the same root of trust and AtK on every boot, the service
// and the vendor CAs endorse the same keys, and a device proves the same key
// over the same challenge. Only a report signed over a client nonce is new.
// KeyFromSeed, Sign and Verify — the tree's only ed25519 calls — are pure
// functions of their bytes (RFC 8032 signing is deterministic), so each one
// answers from memo when it has seen exactly those bytes before, and a
// platform boots on its fused identity instead of re-deriving it.
//
// What is cached: a derived private key, a signature, and a true verdict.
// What never is: a false verdict (a forged or tampered triple always misses
// and is verified for real), and anything X25519 (DESIGN.md §9, §11).
// Virtual time does not move here: every charge is a Sleep of the caller.

// memoSlots is the number of direct-mapped slots in the table; a new answer
// overwrites whatever shared its slot, so the table never grows.
const memoSlots = 1024

// memoOp tags a digest with the function it answers.
type memoOp uint8

const (
	opDerive memoOp = iota
	opSign
	opVerify
	memoOps
)

// memoEntry is one immutable answer: the digest of the call's tagged,
// length-prefixed inputs and the 64 bytes it returned — a private key or a
// signature; a verify entry's out is unused, since only true is stored.
type memoEntry struct {
	key [sha256.Size]byte
	out [64]byte
}

// sigMemo is the table: slots of atomic pointers to immutable entries, so
// experiment cells on concurrent goroutines share it without a lock, and
// per-function miss counts — the calls that reached raw ed25519.
type sigMemo struct {
	slots  [memoSlots]atomic.Pointer[memoEntry]
	misses [memoOps]atomic.Uint64
}

var memo sigMemo

// maxParts is the most inputs a memoized function takes (Verify's three).
const maxParts = 3

// digest returns SHA-256(op ‖ len(part) ‖ SHA-256(part) ‖ ...): each input
// is length-prefixed and hashed on its own, so digesting a call needs no
// hash state beyond the stack and allocates nothing.
func digest(op memoOp, parts ...[]byte) [sha256.Size]byte {
	var buf [1 + maxParts*(8+sha256.Size)]byte
	buf[0] = byte(op)
	n := 1
	for _, p := range parts {
		binary.LittleEndian.PutUint64(buf[n:], uint64(len(p)))
		h := sha256.Sum256(p)
		n += 8 + copy(buf[n+8:], h[:])
	}
	return sha256.Sum256(buf[:n])
}

func (m *sigMemo) slot(k *[sha256.Size]byte) *atomic.Pointer[memoEntry] {
	return &m.slots[binary.LittleEndian.Uint32(k[:4])%memoSlots]
}

// lookup returns the entry stored under k, or nil.
func (m *sigMemo) lookup(k *[sha256.Size]byte) *memoEntry {
	if e := m.slot(k).Load(); e != nil && e.key == *k {
		return e
	}
	return nil
}

// store records out (nil for a true verdict) under k.
func (m *sigMemo) store(k *[sha256.Size]byte, out []byte) {
	e := &memoEntry{key: *k}
	copy(e.out[:], out)
	m.slot(k).Store(e)
}

// copyOut hands a caller its own copy, so flipping a byte of a returned key
// or signature cannot poison the next caller.
func (e *memoEntry) copyOut() []byte {
	out := make([]byte, len(e.out))
	copy(out, e.out[:])
	return out
}

// KeyFromSeed derives a deterministic Ed25519 private key from arbitrary
// seed material (a fuse value).
func KeyFromSeed(seed []byte) PrivateKey {
	k := digest(opDerive, seed)
	if e := memo.lookup(&k); e != nil {
		return e.copyOut()
	}
	memo.misses[opDerive].Add(1)
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	memo.store(&k, priv)
	return priv
}

// Sign signs msg.
func Sign(priv PrivateKey, msg []byte) []byte {
	k := digest(opSign, priv, msg)
	if e := memo.lookup(&k); e != nil {
		return e.copyOut()
	}
	memo.misses[opSign].Add(1)
	sig := ed25519.Sign(priv, msg)
	memo.store(&k, sig)
	return sig
}

// Verify checks sig over msg.
func Verify(pub PublicKey, msg, sig []byte) bool {
	k := digest(opVerify, pub, msg, sig)
	if memo.lookup(&k) != nil {
		return true
	}
	memo.misses[opVerify].Add(1)
	if !ed25519.Verify(pub, msg, sig) {
		return false
	}
	memo.store(&k, nil)
	return true
}
