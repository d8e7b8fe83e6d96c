package attest

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"cronus/internal/metrics"
	"cronus/internal/sim"
)

func testCache(capacity int, ttl sim.Duration) (*TicketCache, *metrics.Registry) {
	reg := metrics.NewRegistry()
	reg.Enable()
	return NewTicketCache([]byte("seed"), capacity, ttl, reg), reg
}

func counter(t *testing.T, reg *metrics.Registry, name string) uint64 {
	t.Helper()
	snap := reg.Snapshot()
	return snap.Counters[name]
}

func TestTicketTTLBoundaries(t *testing.T) {
	const ttl = 1000 * sim.Microsecond
	meas := Measure([]byte("mos"))
	cases := []struct {
		name    string
		mintAt  sim.Time
		tryAt   sim.Time
		wantHit bool
	}{
		{"immediately after mint", 0, 1, true},
		{"one tick before expiry", 0, sim.Time(ttl) - 1, true},
		{"exactly at expiry", 0, sim.Time(ttl), false},
		{"after expiry", 0, sim.Time(ttl) + 1, false},
		{"late mint still honors ttl", 5000, 5000 + sim.Time(ttl) - 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testCache(8, ttl)
			c.Mint("tenant-a", meas, 1, tc.mintAt)
			hit, err := c.Resume("tenant-a", meas, 1, tc.tryAt)
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			if hit != tc.wantHit {
				t.Fatalf("Resume at %d after mint at %d: hit=%v, want %v",
					tc.tryAt, tc.mintAt, hit, tc.wantHit)
			}
		})
	}
}

// TestTicketSurvivesSameMeasurementMove pins the property planned live
// migration relies on: tickets are keyed by (tenant, measurement), not by
// partition, so moving a tenant's enclave onto another partition booted from
// the same mOS image resumes on the existing ticket — no cold quote
// verification — while a move onto differently-measured firmware misses.
func TestTicketSurvivesSameMeasurementMove(t *testing.T) {
	c, reg := testCache(8, sim.Second)
	meas := Measure([]byte("mos-image"))
	c.Mint("tenant-a", meas, 1, 0)
	// The migration destination boots the same image: same measurement, and
	// the partition identity is nowhere in the key — the ticket holds.
	hit, err := c.Resume("tenant-a", meas, 1, 100)
	if err != nil || !hit {
		t.Fatalf("post-migration Resume (same measurement) = %v, %v, want hit", hit, err)
	}
	if n := counter(t, reg, "attest.tickets.hits"); n != 1 {
		t.Fatalf("ticket hits = %d, want 1", n)
	}
	// A destination with different firmware is a different session entirely.
	other := Measure([]byte("mos-image-v2"))
	hit, err = c.Resume("tenant-a", other, 1, 100)
	if err != nil || hit {
		t.Fatalf("Resume on a different measurement = %v, %v, want cold miss", hit, err)
	}
	if n := counter(t, reg, "attest.tickets.misses"); n != 1 {
		t.Fatalf("ticket misses = %d, want 1", n)
	}
}

func TestTicketLRUCapacityPressure(t *testing.T) {
	c, reg := testCache(2, sim.Duration(1)*sim.Second)
	m1, m2, m3 := Measure([]byte("a")), Measure([]byte("b")), Measure([]byte("c"))
	c.Mint("t", m1, 1, 0)
	c.Mint("t", m2, 1, 1)
	// Touch m1 so m2 becomes least-recently-used.
	if hit, _ := c.Resume("t", m1, 1, 2); !hit {
		t.Fatal("m1 should resume before eviction")
	}
	c.Mint("t", m3, 1, 3) // evicts m2
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if hit, _ := c.Resume("t", m2, 1, 4); hit {
		t.Fatal("m2 should have been evicted as LRU")
	}
	if hit, _ := c.Resume("t", m1, 1, 5); !hit {
		t.Fatal("m1 should have survived eviction")
	}
	if hit, _ := c.Resume("t", m3, 1, 6); !hit {
		t.Fatal("m3 should be live")
	}
	if got := counter(t, reg, "attest.tickets.evicted"); got != 1 {
		t.Fatalf("evicted = %d, want 1", got)
	}
}

func TestTicketEpochBumpInvalidates(t *testing.T) {
	c, reg := testCache(8, sim.Duration(1)*sim.Second)
	meas := Measure([]byte("mos"))
	c.Mint("t", meas, 3, 0)
	if hit, _ := c.Resume("t", meas, 3, 1); !hit {
		t.Fatal("same-epoch resume should hit")
	}
	// The partition restarted: epoch bumped 3 -> 4. The old ticket is dead.
	if hit, _ := c.Resume("t", meas, 4, 2); hit {
		t.Fatal("epoch-bumped resume must miss")
	}
	if got := counter(t, reg, "attest.tickets.epoch_stale"); got != 1 {
		t.Fatalf("epoch_stale = %d, want 1", got)
	}
	// And the slot is gone entirely, so the next try is a plain miss.
	if hit, _ := c.Resume("t", meas, 4, 3); hit {
		t.Fatal("slot should have been dropped")
	}
	if got := counter(t, reg, "attest.tickets.misses"); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

func TestTicketRevocation(t *testing.T) {
	c, reg := testCache(8, sim.Duration(1)*sim.Second)
	good, bad := Measure([]byte("good")), Measure([]byte("bad"))
	c.Mint("t1", bad, 1, 0)
	c.Mint("t2", bad, 1, 0)
	c.Mint("t1", good, 1, 0)
	if n := c.RevokeMeasurement("gpu-part0", bad); n != 2 {
		t.Fatalf("RevokeMeasurement purged %d tickets, want 2", n)
	}
	_, err := c.Resume("t1", bad, 1, 1)
	re, ok := err.(*RevokedError)
	if !ok {
		t.Fatalf("Resume after revocation: err = %v, want *RevokedError", err)
	}
	if re.Partition != "gpu-part0" || re.Tenant != "t1" || re.Meas != bad {
		t.Fatalf("RevokedError fields wrong: %+v", re)
	}
	if hit, err := c.Resume("t1", good, 1, 1); err != nil || !hit {
		t.Fatalf("unrelated measurement affected by revocation: hit=%v err=%v", hit, err)
	}
	if got := counter(t, reg, "attest.tickets.revoked"); got != 2 {
		t.Fatalf("revoked = %d, want 2", got)
	}
}

func TestTicketStorm(t *testing.T) {
	c, reg := testCache(8, sim.Duration(1)*sim.Second)
	for _, blob := range []string{"a", "b", "c"} {
		c.Mint("t", Measure([]byte(blob)), 1, 0)
	}
	if n := c.Storm(10); n != 3 {
		t.Fatalf("Storm flushed %d, want 3", n)
	}
	if c.Len() != 0 {
		t.Fatalf("Len after storm = %d, want 0", c.Len())
	}
	if hit, _ := c.Resume("t", Measure([]byte("a")), 1, 11); hit {
		t.Fatal("post-storm resume must go cold")
	}
	if got := counter(t, reg, "attest.tickets.stormed"); got != 3 {
		t.Fatalf("stormed = %d, want 3", got)
	}
}

// TestTicketSealRejectsTamper flips each sealed field (and a MAC byte) of the
// cached ticket after Mint: every one must fail the resume and cost the slot.
// Resume is called with whatever (epoch, instant) the tampered body claims, so
// the cheaper epoch and expiry checks pass and the verdict is the MAC's.
func TestTicketSealRejectsTamper(t *testing.T) {
	meas := Measure([]byte("mos"))
	cases := []struct {
		name   string
		tamper func(tk *Ticket)
	}{
		{"tenant", func(tk *Ticket) { tk.Tenant = "u" }},
		{"measurement", func(tk *Ticket) { tk.Meas[7] ^= 1 }},
		{"epoch", func(tk *Ticket) { tk.Epoch = 99 }},
		{"expiry", func(tk *Ticket) { tk.Expires += sim.Time(sim.Second) }},
		{"mac byte", func(tk *Ticket) { tk.MAC[31] ^= 0x80 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, reg := testCache(8, sim.Second)
			tk := c.Mint("t", meas, 1, 0)
			if hit, _ := c.Resume("t", meas, 1, 1); !hit {
				t.Fatal("untampered ticket must resume")
			}
			tc.tamper(tk)
			if hit, err := c.Resume("t", meas, tk.Epoch, 2); hit || err != nil {
				t.Fatalf("tampered ticket: Resume = %v, %v, want false, nil", hit, err)
			}
			if c.Len() != 0 {
				t.Fatalf("tampered slot still cached (Len = %d)", c.Len())
			}
			if n := counter(t, reg, "attest.tickets.hits"); n != 1 {
				t.Fatalf("hits = %d, want only the untampered one", n)
			}
		})
	}
}

// TestTicketMACMatchesReference pins the seal's bytes against an HMAC built
// from scratch here — key derivation, field order and encoding — so the keyed
// hash.Hash the cache reuses cannot drift from what a ticket has always been.
func TestTicketMACMatchesReference(t *testing.T) {
	c, _ := testCache(8, 1000*sim.Microsecond)
	meas := Measure([]byte("mos"))
	c.Mint("warm-the-scratch-with-a-longer-name", meas, 9, 1)
	tk := c.Mint("tenant-a", meas, 3, 5000)

	key := sha256.Sum256([]byte("ticket-seal/seed"))
	m := hmac.New(sha256.New, key[:])
	m.Write([]byte("tenant-a"))
	m.Write(meas[:])
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], 3)
	binary.LittleEndian.PutUint64(b[8:], uint64(5000+1000*sim.Microsecond))
	m.Write(b[:])
	if want := m.Sum(nil); !bytes.Equal(tk.MAC, want) {
		t.Fatalf("ticket MAC = %x, reference HMAC = %x", tk.MAC, want)
	}
}

// TestTicketCachesDoNotShareKeys: a ticket sealed under one seed never
// resumes in a cache keyed from another, whichever way it is carried over.
func TestTicketCachesDoNotShareKeys(t *testing.T) {
	meas := Measure([]byte("mos"))
	reg := metrics.NewRegistry()
	a := NewTicketCache([]byte("seed-a"), 8, sim.Second, reg)
	b := NewTicketCache([]byte("seed-b"), 8, sim.Second, reg)
	ta, tb := a.Mint("t", meas, 1, 0), b.Mint("t", meas, 1, 0)
	if bytes.Equal(ta.MAC, tb.MAC) {
		t.Fatal("two seeds sealed the same body to the same MAC")
	}
	*ta, *tb = *tb, *ta // each cache now holds the other's sealed ticket
	if hit, _ := a.Resume("t", meas, 1, 1); hit {
		t.Fatal("cache a resumed a ticket sealed by cache b")
	}
	if hit, _ := b.Resume("t", meas, 1, 1); hit {
		t.Fatal("cache b resumed a ticket sealed by cache a")
	}
}

// TestTicketResumeDoesNotAllocate is the attest row of the flow plane's
// allocation budget: a resume — lookup, full MAC, LRU touch — and the seal by
// itself put nothing on the heap.
func TestTicketResumeDoesNotAllocate(t *testing.T) {
	c, _ := testCache(8, sim.Second)
	meas := Measure([]byte("mos"))
	tk := c.Mint("tenant-a", meas, 1, 0)
	if n := testing.AllocsPerRun(200, func() {
		if hit, err := c.Resume("tenant-a", meas, 1, 5); !hit || err != nil {
			t.Fatalf("Resume = %v, %v", hit, err)
		}
	}); n != 0 {
		t.Errorf("Resume allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.seal(tk) }); n != 0 {
		t.Errorf("seal allocates %v per call, want 0", n)
	}
}

// BenchmarkTicketResume is the host cost of the attestation gate's steady
// state: one live-ticket resume, full HMAC-SHA256 included.
func BenchmarkTicketResume(b *testing.B) {
	c, _ := testCache(1024, sim.Second)
	meas := Measure([]byte("mos"))
	c.Mint("tenant-a", meas, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hit, _ := c.Resume("tenant-a", meas, 1, 5); !hit {
			b.Fatal("resume missed")
		}
	}
}

func TestVerifyCacheDelay(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Enable()
	vc := NewVerifyCache(reg)
	meas := Measure([]byte("mos"))
	const cost = 480 * sim.Microsecond

	if d := vc.Delay(meas, 1, 1000, cost); d != cost {
		t.Fatalf("cold delay = %s, want %s", d, cost)
	}
	// In flight: a second session 100us later waits only the remainder.
	at2 := sim.Time(1000) + sim.Time(100*sim.Microsecond)
	if d := vc.Delay(meas, 1, at2, cost); d != cost-100*sim.Microsecond {
		t.Fatalf("coalesced delay = %s, want %s", d, cost-100*sim.Microsecond)
	}
	// Memoized: after completion the verdict is free.
	at3 := sim.Time(1000) + sim.Time(cost) + 1
	if d := vc.Delay(meas, 1, at3, cost); d != 0 {
		t.Fatalf("memoized delay = %s, want 0", d)
	}
	// A different epoch is a fresh verification.
	if d := vc.Delay(meas, 2, at3, cost); d != cost {
		t.Fatalf("epoch-bumped delay = %s, want %s", d, cost)
	}
	snap := reg.Snapshot()
	if snap.Counters["attest.verify.misses"] != 2 ||
		snap.Counters["attest.verify.coalesced"] != 1 ||
		snap.Counters["attest.verify.hits"] != 1 {
		t.Fatalf("counter mix wrong: %v", snap.Counters)
	}
	// Invalidate drops every epoch of the measurement.
	vc.Invalidate(meas)
	if d := vc.Delay(meas, 1, at3+sim.Time(cost)*4, cost); d != cost {
		t.Fatalf("post-invalidate delay = %s, want %s", d, cost)
	}
}

// TestTicketDeterminism pins that two identical operation sequences produce
// byte-identical metrics snapshots — the replay contract the chaos harness
// relies on.
func TestTicketDeterminism(t *testing.T) {
	run := func() string {
		c, reg := testCache(4, 500*sim.Microsecond)
		vc := NewVerifyCache(reg)
		now := sim.Time(0)
		for i := 0; i < 64; i++ {
			meas := Measure([]byte{byte(i % 6)})
			epoch := uint64(1 + i/32)
			if hit, err := c.Resume("tenant", meas, epoch, now); err == nil && !hit {
				vc.Delay(meas, epoch, now, 480*sim.Microsecond)
				c.Mint("tenant", meas, epoch, now)
			}
			if i == 40 {
				c.RevokeMeasurement("gpu-part1", Measure([]byte{2}))
			}
			if i == 50 {
				c.Storm(now)
			}
			now += sim.Time(37 * sim.Microsecond)
		}
		var b strings.Builder
		if err := reg.Snapshot().WriteJSON(&b); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("snapshots diverged:\n%s\n---\n%s", a, b)
	}
}
