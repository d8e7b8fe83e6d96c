package attest

import (
	"container/list"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

	"cronus/internal/metrics"
	"cronus/internal/sim"
)

// This file implements session-ticket resumption: the amortization layer
// that lets dynamic attestation gate every session without dominating the
// admission path. A successful dynamic attestation mints a sealed,
// epoch-bound Ticket keyed by (tenant, partition measurement); later
// sessions present the ticket and skip the quote round-trip entirely,
// paying one MAC check instead of two signature verifications. Tickets
// expire on a deterministic virtual-time TTL, are invalidated by a
// partition epoch bump (every mOS restart changes the epoch), and are
// revoked in bulk when continuous re-measurement detects a stale or
// mismatched measurement.

// RevokedError is the typed shed returned when a session presents (or is
// bound for) a partition whose measurement has been revoked by continuous
// re-measurement. Requests failed with it never completed on the revoked
// partition; the client must re-attest against a healthy partition.
type RevokedError struct {
	Tenant    string      // tenant whose session was shed
	Partition string      // partition whose measurement was revoked
	Meas      Measurement // the revoked measurement
}

// Error renders the shed for logs and typed-error matching.
func (e *RevokedError) Error() string {
	return fmt.Sprintf("attest: tenant %s shed: partition %s measurement %s revoked",
		e.Tenant, e.Partition, e.Meas)
}

// Ticket is a sealed session-resumption credential: proof that this tenant
// completed a full dynamic attestation of a partition carrying this exact
// measurement at this exact epoch. The seal is a MAC under a key only the
// issuing cache holds, so a forged or tampered ticket never resumes.
type Ticket struct {
	Tenant  string      // session owner
	Meas    Measurement // partition measurement pinned at mint time
	Epoch   uint64      // partition epoch pinned at mint time
	Expires sim.Time    // virtual-time expiry (mint time + TTL)
	MAC     []byte      // seal over the four fields above
}

// ticketKey identifies a cache slot: one live ticket per (tenant,
// measurement) pair.
type ticketKey struct {
	tenant string
	meas   Measurement
}

// TicketCache is the server-side ticket store: an LRU-bounded,
// virtual-time-TTL'd map from (tenant, partition measurement) to the live
// sealed ticket. All state transitions land in the metrics registry
// (attest.tickets.* counters), and every operation is deterministic — the
// LRU order is maintained explicitly, never derived from map iteration.
type TicketCache struct {
	// mac is HMAC-SHA256 keyed with the seal key (derived from platform seed
	// material), built once: Reset rewinds it to the keyed state, so a seal
	// hashes the ticket body and nothing else. body is the scratch the body is
	// laid out in and tag the array the MAC lands in; both live here so that a
	// seal puts nothing on the heap, and neither outlives one seal's caller.
	mac     hash.Hash
	body    []byte
	tag     [sha256.Size]byte
	cap     int
	ttl     sim.Duration
	byKey   map[ticketKey]*list.Element
	lru     *list.List             // front = most recently used
	revoked map[Measurement]string // measurement -> partition name

	mMinted, mHits, mMisses  *metrics.Counter
	mExpired, mEvicted       *metrics.Counter
	mRevoked, mEpochStale    *metrics.Counter
	mStormed, mRevokedLookup *metrics.Counter
	gSize                    *metrics.Gauge
}

// entry is one LRU slot.
type entry struct {
	key ticketKey
	tk  *Ticket
}

// NewTicketCache builds a ticket cache sealing with key material derived
// from seed, bounded to capacity live tickets with the given virtual-time
// TTL. Counters register in reg (metrics.Default when nil).
func NewTicketCache(seed []byte, capacity int, ttl sim.Duration, reg *metrics.Registry) *TicketCache {
	if reg == nil {
		reg = metrics.Default
	}
	h := sha256.Sum256(append([]byte("ticket-seal/"), seed...))
	return &TicketCache{
		mac:            hmac.New(sha256.New, h[:]),
		cap:            capacity,
		ttl:            ttl,
		byKey:          make(map[ticketKey]*list.Element),
		lru:            list.New(),
		revoked:        make(map[Measurement]string),
		mMinted:        reg.Counter("attest.tickets.minted"),
		mHits:          reg.Counter("attest.tickets.hits"),
		mMisses:        reg.Counter("attest.tickets.misses"),
		mExpired:       reg.Counter("attest.tickets.expired"),
		mEvicted:       reg.Counter("attest.tickets.evicted"),
		mRevoked:       reg.Counter("attest.tickets.revoked"),
		mEpochStale:    reg.Counter("attest.tickets.epoch_stale"),
		mStormed:       reg.Counter("attest.tickets.stormed"),
		mRevokedLookup: reg.Counter("attest.tickets.revoked_lookups"),
		gSize:          reg.Gauge("attest.tickets.size"),
	}
}

// seal MACs the ticket body (tenant ‖ meas ‖ epoch ‖ expires) under the cache
// key. The result aliases c.tag: it is valid until the next seal. It allocates
// nothing once the scratch fits the longest tenant name.
func (c *TicketCache) seal(t *Ticket) []byte {
	b := append(c.body[:0], t.Tenant...)
	b = append(b, t.Meas[:]...)
	b = binary.LittleEndian.AppendUint64(b, t.Epoch)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Expires))
	c.body = b
	c.mac.Reset()
	c.mac.Write(b)
	return c.mac.Sum(c.tag[:0])
}

// Mint seals a fresh ticket for (tenant, meas) at the given epoch, caches
// it (evicting the least-recently-used ticket at capacity) and returns it.
// Call it exactly once per completed cold attestation.
func (c *TicketCache) Mint(tenant string, meas Measurement, epoch uint64, now sim.Time) *Ticket {
	t := &Ticket{Tenant: tenant, Meas: meas, Epoch: epoch, Expires: now + sim.Time(c.ttl)}
	t.MAC = append([]byte(nil), c.seal(t)...)
	k := ticketKey{tenant, meas}
	if el, ok := c.byKey[k]; ok {
		el.Value.(*entry).tk = t
		c.lru.MoveToFront(el)
	} else {
		if c.cap > 0 && c.lru.Len() >= c.cap {
			// Evict the least-recently-used ticket to stay in bound.
			back := c.lru.Back()
			delete(c.byKey, back.Value.(*entry).key)
			c.lru.Remove(back)
			c.mEvicted.Inc()
		}
		c.byKey[k] = c.lru.PushFront(&entry{key: k, tk: t})
	}
	c.mMinted.Inc()
	c.gSize.Set(int64(c.lru.Len()))
	return t
}

// Resume looks up and validates the live ticket for (tenant, meas) at the
// given current epoch and virtual instant. It returns true when the session
// may skip the quote round-trip: the ticket exists, its seal checks, its
// epoch still matches and its TTL has not lapsed. It returns false (cold
// attestation required) on a miss, an epoch bump, or expiry — each counted
// distinctly — and a *RevokedError when the measurement has been revoked.
func (c *TicketCache) Resume(tenant string, meas Measurement, epoch uint64, now sim.Time) (bool, error) {
	if part, ok := c.revoked[meas]; ok {
		c.mRevokedLookup.Inc()
		return false, &RevokedError{Tenant: tenant, Partition: part, Meas: meas}
	}
	k := ticketKey{tenant, meas}
	el, ok := c.byKey[k]
	if !ok {
		c.mMisses.Inc()
		return false, nil
	}
	t := el.Value.(*entry).tk
	if t.Epoch != epoch {
		c.drop(el)
		c.mEpochStale.Inc()
		return false, nil
	}
	if now >= t.Expires {
		c.drop(el)
		c.mExpired.Inc()
		return false, nil
	}
	// The seal is recomputed in full on every resume: a verdict remembered
	// from an earlier check would let a body tampered since then resume.
	if !hmac.Equal(t.MAC, c.seal(t)) {
		c.drop(el)
		c.mMisses.Inc()
		return false, nil
	}
	c.lru.MoveToFront(el)
	c.mHits.Inc()
	return true, nil
}

// drop removes one slot and updates the size gauge.
func (c *TicketCache) drop(el *list.Element) {
	delete(c.byKey, el.Value.(*entry).key)
	c.lru.Remove(el)
	c.gSize.Set(int64(c.lru.Len()))
}

// RevokeMeasurement purges every ticket minted against meas and marks the
// measurement revoked: later Resume calls for it return *RevokedError until
// the partition restarts under a fresh (re-attested) measurement/epoch. It
// returns the number of tickets revoked. partition names the victim for the
// typed error.
func (c *TicketCache) RevokeMeasurement(partition string, meas Measurement) int {
	c.revoked[meas] = partition
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).key.meas == meas {
			c.drop(el)
			n++
		}
		el = next
	}
	c.mRevoked.Add(uint64(n))
	return n
}

// Storm force-expires every live ticket at the given instant — the
// attest-storm chaos fault: a mass expiry that sends every session back
// through cold attestation at once. Returns the number of tickets flushed.
func (c *TicketCache) Storm(now sim.Time) int {
	n := c.lru.Len()
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		c.drop(el)
		el = next
	}
	c.mStormed.Add(uint64(n))
	c.mExpired.Add(uint64(n))
	return n
}
