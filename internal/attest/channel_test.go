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
