package attest

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// referenceMAC is the tag as the channel computed it before it kept its HMAC
// state: a fresh hmac.New per message over seq ‖ payload, keyed with
// HMAC(secret, "channel/"+label).
func referenceMAC(secret []byte, label string, seq uint64, payload []byte) []byte {
	kdf := hmac.New(sha256.New, secret)
	kdf.Write([]byte("channel/" + label))
	m := hmac.New(sha256.New, kdf.Sum(nil))
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], seq)
	m.Write(b[:])
	m.Write(payload)
	return m.Sum(nil)
}

// TestChannelMACMatchesReference: the per-channel HMAC state, Reset between
// messages, must produce byte-for-byte the tags a fresh hmac.New would — over
// payload sizes on both sides of the SHA-256 block and with Seal and Open
// interleaved on channels that share nothing but the key.
func TestChannelMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	secret := make([]byte, 32)
	rng.Read(secret)
	const label = "owner->enclave"
	tx, rx := NewChannel(secret, label), NewChannel(secret, label)
	sizes := []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 128, 4096, 65536}
	for i := 0; i < 200; i++ {
		n := sizes[i%len(sizes)]
		if i >= len(sizes) {
			n = rng.Intn(3000)
		}
		payload := make([]byte, n)
		rng.Read(payload)
		m := tx.Seal(payload)
		if want := referenceMAC(secret, label, m.Seq, payload); !hmac.Equal(m.MAC[:], want) {
			t.Fatalf("message %d (%d bytes): MAC %x, hmac.New reference %x", i, n, m.MAC, want)
		}
		if m.Seq != uint64(i+1) {
			t.Fatalf("message %d sealed with seq %d", i, m.Seq)
		}
		got, err := rx.Open(m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if n > 0 && &got[0] != &payload[0] {
			t.Fatalf("message %d: the payload was copied on its way through Seal and Open", i)
		}
	}
}

// TestChannelRejectionsStayTyped: with the kept HMAC state, every way an
// attacker on the untrusted transport can alter traffic still fails with the
// typed error, and a rejected message leaves the state good for the next one.
func TestChannelRejectionsStayTyped(t *testing.T) {
	secret := []byte("secret_dhke-material-32-bytes!!!")
	genuine := func() (tx, rx, other *Channel) {
		return NewChannel(secret, "a->b"), NewChannel(secret, "a->b"), NewChannel(secret, "b->a")
	}
	cases := []struct {
		name   string
		attack func(tx, rx, other *Channel) error
		want   error
	}{
		{"payload bit flipped", func(tx, rx, _ *Channel) error {
			m := tx.Seal([]byte("cuMemcpyHtoD dst=0x1000"))
			m.Payload = append([]byte(nil), m.Payload...)
			m.Payload[3] ^= 1
			_, err := rx.Open(m)
			return err
		}, ErrTampered},
		{"payload truncated", func(tx, rx, _ *Channel) error {
			m := tx.Seal([]byte("cuMemcpyHtoD dst=0x1000"))
			m.Payload = m.Payload[:len(m.Payload)-1]
			_, err := rx.Open(m)
			return err
		}, ErrTampered},
		{"MAC bit flipped", func(tx, rx, _ *Channel) error {
			m := tx.Seal([]byte("args"))
			m.MAC[31] ^= 0x80
			_, err := rx.Open(m)
			return err
		}, ErrTampered},
		{"sequence rewritten", func(tx, rx, _ *Channel) error {
			m := tx.Seal([]byte("args"))
			m.Seq++ // the MAC covers seq, so renumbering is tampering
			_, err := rx.Open(m)
			return err
		}, ErrTampered},
		{"replayed", func(tx, rx, _ *Channel) error {
			m := tx.Seal([]byte("args"))
			if _, err := rx.Open(m); err != nil {
				return err
			}
			_, err := rx.Open(m)
			return err
		}, ErrReplayed},
		{"reordered", func(tx, rx, _ *Channel) error {
			tx.Seal([]byte("first"))
			_, err := rx.Open(tx.Seal([]byte("second")))
			return err
		}, ErrReplayed},
		{"spliced from the other direction", func(_, rx, other *Channel) error {
			_, err := rx.Open(other.Seal([]byte("args")))
			return err
		}, ErrTampered},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tx, rx, other := genuine()
			if err := c.attack(tx, rx, other); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
			// A rejection must leave the kept HMAC state as good as new.
			probe := []byte("probe")
			if got, want := rx.sum(7, probe), referenceMAC(secret, "a->b", 7, probe); !hmac.Equal(got[:], want) {
				t.Fatalf("receiver MAC state damaged: %x, want %x", got, want)
			}
		})
	}
}

// TestChannelPairMatchesReference: the two channels NewChannelPair derives
// with one keyed KDF seal exactly what two NewChannel calls would.
func TestChannelPairMatchesReference(t *testing.T) {
	secret := []byte("pair-secret")
	a, b := NewChannelPair(secret, "srpc-setup:7:owner->enclave", "srpc-setup:7:enclave->owner")
	for i, c := range []struct {
		ch    *Channel
		label string
	}{{a, "srpc-setup:7:owner->enclave"}, {b, "srpc-setup:7:enclave->owner"}} {
		payload := []byte{byte(i), 1, 2, 3}
		m := c.ch.Seal(payload)
		if want := referenceMAC(secret, c.label, m.Seq, payload); !hmac.Equal(m.MAC[:], want) {
			t.Errorf("channel %q: MAC %x, NewChannel reference %x", c.label, m.MAC, want)
		}
		if c.ch.label != c.label {
			t.Errorf("channel %d labelled %q, want %q", i, c.ch.label, c.label)
		}
	}
}

// TestLocalSealMatchesReference: the sealer's kept HMAC state, Reset per
// report, tags a local report with exactly the bytes a fresh
// hmac.New(sha256.New, LSK) over the report's encoding gives, seal after seal
// and verify between them; and a report changed in any one field, or under
// another LSK, is refused.
func TestLocalSealMatchesReference(t *testing.T) {
	seed := []byte("platform-fuse")
	key := sha256.Sum256(append([]byte("lsk/"), seed...))
	reference := func(r LocalReport) []byte {
		var b [4 + 32 + 32 + 8]byte
		binary.LittleEndian.PutUint32(b[0:], r.EnclaveID)
		copy(b[4:], r.EnclaveHash[:])
		copy(b[36:], r.MOSHash[:])
		binary.LittleEndian.PutUint64(b[68:], r.Nonce)
		m := hmac.New(sha256.New, key[:])
		m.Write(b[:])
		return m.Sum(nil)
	}
	lsk := NewLocalSealer(seed)
	var tags [][]byte
	for i := 0; i < 8; i++ {
		r := LocalReport{
			EnclaveID:   uint32(0x01000000 + i),
			EnclaveHash: Measure([]byte{byte(i)}),
			MOSHash:     Measure([]byte("mos")),
			Nonce:       uint64(i) * 977,
		}
		tag := lsk.Seal(r)
		if want := reference(r); !hmac.Equal(tag, want) {
			t.Fatalf("report %d: tag %x, hmac.New reference %x", i, tag, want)
		}
		if !lsk.Verify(r, tag) {
			t.Fatalf("report %d: genuine tag refused", i)
		}
		tags = append(tags, tag)
	}
	// A returned tag is the caller's: later seals do not write over it.
	for i, tag := range tags {
		r := LocalReport{EnclaveID: uint32(0x01000000 + i), EnclaveHash: Measure([]byte{byte(i)}), MOSHash: Measure([]byte("mos")), Nonce: uint64(i) * 977}
		if !hmac.Equal(tag, reference(r)) {
			t.Fatalf("tag %d changed after later seals", i)
		}
	}

	r := LocalReport{EnclaveID: 0x01000002, EnclaveHash: Measure([]byte("e")), MOSHash: Measure([]byte("m")), Nonce: 9}
	tag := lsk.Seal(r)
	tampered := map[string]func(*LocalReport){
		"EnclaveID":   func(r *LocalReport) { r.EnclaveID ^= 1 << 24 },
		"EnclaveHash": func(r *LocalReport) { r.EnclaveHash[31] ^= 1 },
		"MOSHash":     func(r *LocalReport) { r.MOSHash[0] ^= 0x80 },
		"Nonce":       func(r *LocalReport) { r.Nonce++ },
	}
	for field, change := range tampered {
		bad := r
		change(&bad)
		if lsk.Verify(bad, tag) {
			t.Errorf("report with %s changed verified under the original tag", field)
		}
	}
	if NewLocalSealer([]byte("other-machine")).Verify(r, tag) {
		t.Error("another machine's LSK verified the tag")
	}
	short := append([]byte(nil), tag[:len(tag)-1]...)
	if lsk.Verify(r, short) {
		t.Error("a truncated tag verified")
	}
	if !lsk.Verify(r, tag) {
		t.Error("the genuine tag stopped verifying after the refusals")
	}
}
