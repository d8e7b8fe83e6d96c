package attest

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// rawKey is KeyFromSeed without the memo.
func rawKey(seed []byte) PrivateKey {
	h := sha256.Sum256(seed)
	return ed25519.NewKeyFromSeed(h[:])
}

// missDelta runs fn and returns how many derive, sign and verify calls it
// sent to raw ed25519, read from the table's own counters.
func missDelta(fn func()) [memoOps]uint64 {
	var before, d [memoOps]uint64
	for i := range before {
		before[i] = memo.misses[i].Load()
	}
	fn()
	for i := range d {
		d[i] = memo.misses[i].Load() - before[i]
	}
	return d
}

// TestSigMemoMatchesRaw: the first call of each function reaches raw ed25519
// and the second is answered from the table, and both answers are raw's.
func TestSigMemoMatchesRaw(t *testing.T) {
	seed := []byte("memo-matches-raw")
	msg := []byte("endorse me")
	for round, want := range [][memoOps]uint64{{1, 1, 1}, {0, 0, 0}} {
		var priv PrivateKey
		var sig []byte
		var ok bool
		got := missDelta(func() {
			priv = KeyFromSeed(seed)
			sig = Sign(priv, msg)
			ok = Verify(priv.Public().(PublicKey), msg, sig)
		})
		if got != want {
			t.Errorf("round %d: misses (derive, sign, verify) = %v, want %v", round, got, want)
		}
		if !bytes.Equal(priv, rawKey(seed)) || !bytes.Equal(sig, ed25519.Sign(rawKey(seed), msg)) || !ok {
			t.Fatalf("round %d: the memo's answers differ from raw ed25519", round)
		}
	}
}

// TestSigMemoRefusesTamperedTwin: after a genuine triple verified (and its
// true verdict was stored), each one-byte tamper of its key, message or
// signature is verified for real and refused, every time.
func TestSigMemoRefusesTamperedTwin(t *testing.T) {
	priv := KeyFromSeed([]byte("device-key"))
	pub := priv.Public().(PublicKey)
	challenge := []byte("challenge 0001")
	sig := Sign(priv, challenge)
	flip := func(b []byte, i int) []byte {
		c := bytes.Clone(b)
		c[i] ^= 0x01
		return c
	}
	for round := 0; round < 3; round++ {
		if !Verify(pub, challenge, sig) {
			t.Fatalf("round %d: genuine response refused", round)
		}
		for _, tc := range []struct {
			name          string
			pub, msg, sig []byte
		}{
			{"key", flip(pub, 3), challenge, sig},
			{"message", pub, flip(challenge, 0), sig},
			{"signature", pub, challenge, flip(sig, 63)},
		} {
			var ok bool
			d := missDelta(func() { ok = Verify(tc.pub, tc.msg, tc.sig) })
			if ok {
				t.Fatalf("round %d: tampered %s accepted right after its genuine twin", round, tc.name)
			}
			if d[opVerify] != 1 {
				t.Errorf("round %d: tampered %s was not verified for real (%d raw verifications)", round, tc.name, d[opVerify])
			}
		}
	}
}

// TestSigMemoChainRefusesTamper holds VerifyReport to the same rule: a
// tampered AtK endorsement, device endorsement or report signature is
// refused with its sentinel right after the genuine chain verified.
func TestSigMemoChainRefusesTamper(t *testing.T) {
	v, sr, want := buildChain(t, 9)
	for round := 0; round < 3; round++ {
		if err := v.VerifyReport(sr, want); err != nil {
			t.Fatalf("round %d: genuine chain refused: %v", round, err)
		}
		for _, tc := range []struct {
			name   string
			tamper func(*SignedReport)
			want   error
		}{
			{"AtK cert", func(s *SignedReport) { s.AtKCert = bytes.Clone(s.AtKCert); s.AtKCert[5] ^= 0x80 }, ErrAtKNotEndorsed},
			{"report signature", func(s *SignedReport) { s.Sig = bytes.Clone(s.Sig); s.Sig[40] ^= 0x80 }, ErrBadSignature},
			{"device cert", func(s *SignedReport) {
				c := bytes.Clone(s.DeviceCerts["gpu0"])
				c[0] ^= 0x80
				s.DeviceCerts = map[string][]byte{"gpu0": c}
			}, ErrDeviceNotEndorsed},
		} {
			bad := *sr
			tc.tamper(&bad)
			if err := v.VerifyReport(&bad, want); !errors.Is(err, tc.want) {
				t.Fatalf("round %d: tampered %s: err = %v, want %v", round, tc.name, err, tc.want)
			}
		}
	}
}

// TestSigMemoCopiesOut: a caller that flips a byte of a key or signature it
// was handed, from a miss or a hit, cannot change what the next caller gets.
func TestSigMemoCopiesOut(t *testing.T) {
	seed, msg := []byte("copy-out"), []byte("cert body")
	for i := 0; i < 3; i++ {
		priv := KeyFromSeed(seed)
		sig := Sign(priv, msg)
		priv[0] ^= 0xff
		sig[0] ^= 0xff
	}
	want := rawKey(seed)
	if !bytes.Equal(KeyFromSeed(seed), want) || !bytes.Equal(Sign(want, msg), ed25519.Sign(want, msg)) {
		t.Fatal("a mutation of a returned slice reached the table")
	}
}

// memoSink keeps a returned key or signature on the heap, as a caller's would.
var memoSink []byte

// TestSigMemoHitAllocations: a hit allocates no more than the raw call it
// replaces — one 64-byte copy for a key or a signature, nothing for a verdict.
func TestSigMemoHitAllocations(t *testing.T) {
	seed, msg := []byte("alloc"), bytes.Repeat([]byte("report"), 64)
	priv := KeyFromSeed(seed)
	pub := priv.Public().(PublicKey)
	sig := Sign(priv, msg)
	Verify(pub, msg, sig)
	h := sha256.Sum256(seed)
	for _, tc := range []struct {
		name      string
		memo, raw func()
	}{
		{"KeyFromSeed", func() { memoSink = KeyFromSeed(seed) }, func() { memoSink = ed25519.NewKeyFromSeed(h[:]) }},
		{"Sign", func() { memoSink = Sign(priv, msg) }, func() { memoSink = ed25519.Sign(priv, msg) }},
		{"Verify", func() { Verify(pub, msg, sig) }, func() { ed25519.Verify(pub, msg, sig) }},
	} {
		var m, r float64
		d := missDelta(func() { m = testing.AllocsPerRun(50, tc.memo) })
		r = testing.AllocsPerRun(50, tc.raw)
		if d != ([memoOps]uint64{}) {
			t.Fatalf("%s: warm calls missed the table: %v", tc.name, d)
		}
		t.Logf("%s: %v allocations a hit, %v a raw call", tc.name, m, r)
		if m > r {
			t.Errorf("%s: a hit allocates %v objects, the raw call %v", tc.name, m, r)
		}
	}
}

// TestSigMemoFixedSize fills the table with many more distinct answers than
// it has slots: it holds at most memoSlots entries, each in the slot its
// digest names, and an answer whose slot was overwritten misses and is
// derived again, still equal to raw's.
func TestSigMemoFixedSize(t *testing.T) {
	seed := func(round, i int) []byte { return []byte(fmt.Sprintf("fill/%d/%d", round, i)) }
	for round := 0; round < 2; round++ {
		for i := 0; i < 4*memoSlots; i++ {
			KeyFromSeed(seed(round, i))
		}
	}
	live := 0
	for i := range memo.slots {
		e := memo.slots[i].Load()
		if e == nil {
			continue
		}
		live++
		if memo.slot(&e.key) != &memo.slots[i] {
			t.Fatalf("slot %d holds an entry whose digest names another slot", i)
		}
	}
	if live > memoSlots || live < memoSlots*9/10 {
		t.Fatalf("%d live entries after %d distinct answers, want at most %d and nearly all slots used", live, 8*memoSlots, memoSlots)
	}
	evicted := 0
	for i := 0; i < 4*memoSlots && evicted < 16; i++ {
		k := digest(opDerive, seed(0, i))
		if memo.lookup(&k) != nil {
			continue
		}
		evicted++
		var priv PrivateKey
		if d := missDelta(func() { priv = KeyFromSeed(seed(0, i)) }); d[opDerive] != 1 {
			t.Fatalf("an evicted answer did not miss: %v", d)
		}
		if !bytes.Equal(priv, rawKey(seed(0, i))) {
			t.Fatal("a re-derived key differs from raw ed25519")
		}
	}
	if evicted == 0 {
		t.Fatal("no first-round answer was overwritten")
	}
}

// TestSigMemoConcurrent runs derive, sign and verify over one small key set
// from several goroutines at once, so slots are read while they are
// overwritten; every answer must be raw's. Under -race it is the check that
// the slots are the table's only shared state.
func TestSigMemoConcurrent(t *testing.T) {
	const workers, ops, keys = 4, 200, 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				seed := []byte{byte((w + i) % keys)}
				var msg [8]byte
				binary.LittleEndian.PutUint64(msg[:], uint64(i%3))
				priv := KeyFromSeed(seed)
				sig := Sign(priv, msg[:])
				want := rawKey(seed)
				if !bytes.Equal(priv, want) || !bytes.Equal(sig, ed25519.Sign(want, msg[:])) ||
					!Verify(priv.Public().(PublicKey), msg[:], sig) {
					errs <- fmt.Errorf("worker %d op %d: answer differs from raw ed25519", w, i)
					return
				}
				sig[0] ^= 1
				if Verify(priv.Public().(PublicKey), msg[:], sig) {
					errs <- fmt.Errorf("worker %d op %d: tampered signature accepted", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzSigMemo drives the memo with byte-chosen sequences of derivations,
// signatures, verifications, tampers and in-place mutations of a returned
// key or signature, and holds every answer to raw crypto/ed25519's. Each
// pair of input bytes is one step: an op and its argument.
func FuzzSigMemo(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 0})                   // derive, sign, verify: all misses
	f.Add([]byte{0, 1, 1, 0, 2, 0, 1, 0, 2, 0})       // the same again: all hits
	f.Add([]byte{0, 1, 1, 0, 2, 0, 3, 0x47})          // a forged signature right after the genuine one verified
	f.Add([]byte{0, 1, 1, 0, 4, 0x05, 2, 0, 1, 0})    // a cert mutated after Sign returned it
	f.Add([]byte{0, 2, 4, 0x20, 1, 0, 0, 2, 1, 0})    // a key mutated after KeyFromSeed returned it
	f.Add([]byte{0, 1, 0, 2, 1, 0, 1, 1, 3, 0x81, 2}) // two keys, a tampered key field
	f.Fuzz(func(t *testing.T, steps []byte) {
		type signed struct{ pub, msg, sig []byte }
		var (
			keys   []PrivateKey
			sigs   []signed
			handed []byte // the last key or signature returned, aliased by keys or sigs
		)
		for i := 0; i+1 < len(steps) && i < 128; i += 2 {
			op, arg := steps[i]%5, steps[i+1]
			switch op {
			case 0: // derive from one of four seeds, so hits happen
				seed := []byte{'s', arg % 4}
				priv := KeyFromSeed(seed)
				if !bytes.Equal(priv, rawKey(seed)) {
					t.Fatalf("step %d: KeyFromSeed differs from raw", i)
				}
				keys = append(keys, priv)
				handed = priv
			case 1: // sign one of four messages with a key we hold
				if len(keys) == 0 {
					continue
				}
				priv := keys[int(arg)%len(keys)]
				msg := []byte{'m', arg / 64}
				want := ed25519.Sign(priv, msg)
				sig := Sign(priv, msg)
				if !bytes.Equal(sig, want) {
					t.Fatalf("step %d: Sign differs from raw", i)
				}
				sigs = append(sigs, signed{bytes.Clone(priv[32:]), msg, sig})
				handed = sig
			case 2, 3: // verify a signed triple as held, or with one bit flipped
				if len(sigs) == 0 {
					continue
				}
				s := sigs[int(arg)%len(sigs)]
				pub, msg, sig := bytes.Clone(s.pub), bytes.Clone(s.msg), bytes.Clone(s.sig)
				if op == 3 {
					field := [][]byte{pub, msg, sig}[int(arg>>4)%3]
					field[int(arg)%len(field)] ^= 1 << (arg % 8)
				}
				if got, want := Verify(pub, msg, sig), ed25519.Verify(pub, msg, sig); got != want {
					t.Fatalf("step %d: Verify = %v, raw %v", i, got, want)
				}
			case 4: // flip a byte of what we were last handed, in place
				if len(handed) == 0 {
					continue
				}
				handed[int(arg)%len(handed)] ^= 1 | arg
			}
		}
	})
}
