// Package srpc implements CRONUS's streaming remote procedure call protocol
// (§IV-C) and its failover behaviour (§IV-D).
//
// A stream connects a caller mEnclave (the owner, mE_A) to a callee mEnclave
// (mE_B) through trusted shared memory: the owner allocates the smem region,
// the SPM maps it into the callee's partition, the callee proves possession
// of secret_dhke through the region itself (dCheck), and from then on the
// owner streams mECall records into a ring buffer while an executor thread
// in the callee's partition drains and executes them. The owner only blocks
// when it needs data (synchronous mECalls) or an explicit barrier
// (streamCheck). Attackers never see the ring: it lives in TZASC-protected
// memory, so reorder/replay/drop of in-flight RPCs is impossible by
// construction, and RPC timing is hidden.
//
// When a partition or mEnclave on either end fails, the SPM's proceed-trap
// procedure invalidates the stage-2 mappings of the region; the next ring
// access traps, surfaces as *spm.PeerFault, and the stream cleanly reports
// ErrPeerFailed instead of deadlocking or leaking data to a substituted
// peer (attacks A1-A3).
//
// Neither side trusts the ring's control words: the executor validates the
// producer index against its consumed window and every record header
// against the owner's framing before acting on them. A violation aborts the
// stream — the executor publishes a sticky corruption code and poisons the
// consumer index so even owners already parked in a synchronous wait or in
// flow control escape promptly — and every owner-side call from then on
// returns the typed mos.ErrRingCorrupt. Recovery is re-establishment: Abandon
// the dead client and Connect a fresh stream. The chaos harness drives this
// path deliberately via CallHook.Set + InjectRecordCorruption.
package srpc

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Stream geometry.
const (
	headerBytes = 4096 // one page of stream header
	// SlotSize is the ring slot granularity; records span consecutive
	// slots when larger.
	SlotSize = 2048
	// DefaultPages is the default smem size (1 header page + ring).
	DefaultPages = 17 // 64 KiB ring

	pollQuantum = 400 * sim.Nanosecond
)

// Header field offsets within page 0.
const (
	offMagic  = 0
	offRid    = 8
	offSid    = 16
	offClosed = 24
	offDCheck = 32
	offDMAC   = 40 // 32 bytes
	offChal   = 72
	offLock   = 80
	// Arena geometry, published by GrantArena for the executor's fused-
	// record bounds check: the callee-side IPA of the arena and the bytes
	// of one payload slot (0 = no arena granted).
	offArenaIPA  = 88
	offArenaSlot = 96
	// The sticky failure the executor publishes for the owner's next
	// synchronization point: the slot of the failing record, then its reply
	// frame (mos.DecodeReply), whose code word is 0 while there is none, and
	// at offErrName the record's mECall, length-prefixed.
	offErrSid  = 116
	offSticky  = 124
	offErrName = 1024
	maxErrName = 128
	slotBase   = headerBytes
	recHdrSize = 16
)

const streamMagic = 0x5352504356310001 // "SRPCV1" + version

// Record kinds.
const (
	kindAsync = 0
	kindSync  = 1
	// kindNotify is a fused zero-copy record (zerocopy.go): the bulk
	// payload lives in the stream's arena grant rather than the ring, and
	// completion is delivered through a registered callback instead of a
	// synchronous wait on Sid.
	kindNotify = 2
)

// ErrPeerFailed reports that the communicating partition or mEnclave failed
// while the stream was live; the stream has cleared its state (§IV-D).
var ErrPeerFailed = errors.New("srpc: peer failed; stream torn down")

// ErrStreamClosed reports use of a closed stream.
var ErrStreamClosed = errors.New("srpc: stream closed")

// recordSlots is the slot footprint of a record with the given header words:
// push frames with it, and the executor re-derives it to validate that a
// decoded header is self-consistent before trusting any length field.
// The sums are uint64: two header words near 2^32 would wrap a 32-bit int.
func recordSlots(payloadLen, respCap uint32) uint64 {
	body := recHdrSize + uint64(payloadLen)
	if uint64(respCap)+8 > uint64(payloadLen) {
		body = recHdrSize + uint64(respCap) + 8
	}
	return slotsFor(body)
}

// recHeader is a decoded record header (the first recHdrSize bytes of a
// record's first slot).
type recHeader struct {
	payloadLen uint32 // bytes of wire(name, args) that follow the header
	kind       uint32
	slots      uint32 // ring slots the record occupies
	respCap    uint32 // bytes reserved for a synchronous result
}

// parseRecHeader decodes and validates a record header read from a ring of
// ringSlots slots. Nothing in it is trusted until it all holds together: the
// kind must be known, and the slot count must be what push would have framed
// for these lengths — which bounds payloadLen to the record and the record to
// the ring, so the staging read that follows can never run past either. A
// mismatch is a corrupted header (mos.ErrRingCorrupt); misparsing it would
// desynchronize Sid from the record framing for the rest of the stream.
func parseRecHeader(b *[recHdrSize]byte, ringSlots uint64) (recHeader, error) {
	h := recHeader{
		payloadLen: binary.LittleEndian.Uint32(b[0:]),
		kind:       binary.LittleEndian.Uint32(b[4:]),
		slots:      binary.LittleEndian.Uint32(b[8:]),
		respCap:    binary.LittleEndian.Uint32(b[12:]),
	}
	if h.kind > kindNotify || h.slots == 0 || uint64(h.slots) > ringSlots ||
		uint64(h.slots) != recordSlots(h.payloadLen, h.respCap) {
		return h, corruptf("corrupt record header (%s)", h)
	}
	return h, nil
}

func (h recHeader) String() string {
	return fmt.Sprintf("len=%d kind=%d slots=%d respCap=%d", h.payloadLen, h.kind, h.slots, h.respCap)
}

// ring provides byte access to an smem region through a memory view,
// translating PeerFault into the stream-dead condition.
type ring struct {
	view  *spm.View
	base  uint64 // IPA of the smem region in this side's partition
	pages int
	slots uint64
	// idle holds disarmed doorbells for the next wait on this ring; there is
	// more than one only while fused records are pushed concurrently.
	idle []*doorbell
}

func newRing(view *spm.View, base uint64, pages int) *ring {
	return &ring{
		view:  view,
		base:  base,
		pages: pages,
		slots: uint64((pages*4096 - headerBytes) / SlotSize),
	}
}

func (r *ring) slotAddr(idx uint64) uint64 {
	return r.base + slotBase + (idx%r.slots)*SlotSize
}

func (r *ring) readU64(p *sim.Proc, off uint64) (uint64, error) {
	var b [8]byte
	if err := r.view.Read(p, r.base+off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (r *ring) writeU64(p *sim.Proc, off uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.view.Write(p, r.base+off, b[:])
}

func (r *ring) readU32(p *sim.Proc, off uint64) (uint32, error) {
	var b [4]byte
	if err := r.view.Read(p, r.base+off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *ring) writeU32(p *sim.Proc, off uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return r.view.Write(p, r.base+off, b[:])
}

// writeAt writes data at byte offset off of the record that starts at slot
// idx. A record's slots are consecutive in the region except where the ring
// wraps, so a piece is one view access, or two when it straddles the wrap;
// callers lay a record down piece by piece (header scratch, then the
// caller's own argument bytes) without assembling it anywhere first.
func (r *ring) writeAt(p *sim.Proc, idx uint64, off int, data []byte) error {
	at, first := r.span(idx, off, len(data))
	if err := r.view.Write(p, at, data[:first]); err != nil {
		return err
	}
	if first < len(data) {
		return r.view.Write(p, r.base+slotBase, data[first:])
	}
	return nil
}

// readAt fills buf from byte offset off of the record that starts at slot
// idx — the mirror of writeAt, reading into storage the caller owns.
func (r *ring) readAt(p *sim.Proc, idx uint64, off int, buf []byte) error {
	at, first := r.span(idx, off, len(buf))
	if err := r.view.Read(p, at, buf[:first]); err != nil {
		return err
	}
	if first < len(buf) {
		return r.view.Read(p, r.base+slotBase, buf[first:])
	}
	return nil
}

// span locates n bytes at offset off of the record at slot idx: the address
// of the first byte and how many of the n lie before the ring wraps (the
// rest continue at the first slot). Records never exceed the ring, so one
// wrap is all there can be.
func (r *ring) span(idx uint64, off, n int) (at uint64, first int) {
	size := r.slots * SlotSize
	pos := ((idx%r.slots)*SlotSize + uint64(off)) % size
	first = n
	if room := size - pos; uint64(n) > room {
		first = int(room)
	}
	return r.base + slotBase + pos, first
}

func slotsFor(n uint64) uint64 {
	return (n + SlotSize - 1) / SlotSize
}

// doorbell is the event-efficient replacement for ring-header poll loops: a
// condition wired to physical write-watches on the header words a waiter
// polls, plus the SPM's isolation-change hook (failure paths tear mappings
// down without writing the words). Waking is a host-level optimization only —
// the waiter still performs its reads on the exact virtual-time grid the
// polling loop would have used (see alignedWait), so simulated results are
// unchanged; the event queue just carries one wakeup instead of one timer
// per poll quantum.
//
// The doorbell is also the waiter's sim.Rescheduler while it waits: a wake
// that would only send the waiter to sleep until the next grid instant, and —
// for a Sid waiter — a grid read that would only find Sid short of its target
// and wait again, are answered in the kernel instead of resuming the waiter.
type doorbell struct {
	r    *ring
	cond sim.Cond
	wake func() // cond.Broadcast, bound once for every arming
	// Registrations of the current arming: up to two header words, then the
	// isolation-change hook (zero = not registered).
	words [2]int
	iso   int
	// target is the Sid the arming's waiter waits for (0: none — every grid
	// read goes back to the waiter).
	target uint64
	// The wait in progress (alignedWait): its read grid, the instant of its
	// last read, and whether the kernel has put it to sleep until the next.
	first    sim.Time
	period   sim.Duration
	lastRead sim.Time
	asleep   bool
}

// armDoorbell watches the given (offset, length) header words — two at most —
// and the SPM's isolation changes, for a waiter that waits for Sid to reach
// target (0: a waiter that reads something else). Registrations are made
// afresh for every wait, in the order the waits begin: that order is the
// order watches fire in, so it is part of the simulation's determinism. Only
// the doorbell itself is recycled. It returns nil, and counts a fallback,
// when any word is not currently mapped — callers then keep the plain polling
// loop, whose next read faults or observes the teardown.
func (r *ring) armDoorbell(k *sim.Kernel, target uint64, watch ...[2]uint64) *doorbell {
	var db *doorbell
	if n := len(r.idle); n > 0 {
		db, r.idle = r.idle[n-1], r.idle[:n-1]
	} else {
		db = &doorbell{r: r, cond: *sim.NewCond(k)}
		db.wake = db.cond.Broadcast
	}
	db.target = target
	for i, w := range watch {
		id, ok := r.view.WatchWrite(r.base+w[0], w[1], db.wake)
		if !ok {
			db.disarm()
			mDoorbellFallback.Inc()
			return nil
		}
		db.words[i] = id
	}
	db.iso = r.view.OnIsolationChange(db.wake)
	return db
}

// disarm removes the doorbell's registrations and returns it to its ring.
func (db *doorbell) disarm() {
	for _, id := range db.words {
		if id != 0 {
			db.r.view.Unwatch(id)
		}
	}
	if db.iso != 0 {
		db.r.view.OffIsolationChange(db.iso)
	}
	db.words, db.iso = [2]int{}, 0
	db.r.idle = append(db.r.idle, db)
}

// alignedWait parks p until the doorbell rings, then sleeps to the next read
// instant on the polling grid {first + k·period} that is strictly after
// lastRead — the instant the replaced polling loop would have performed its
// next read. A wake landing exactly on a grid instant reads immediately
// (zero sleep): the producer's write is already visible, as it would be to a
// poll read dispatched after the write at the same instant. While p waits,
// db answers for it in the kernel (Reschedule).
func alignedWait(p *sim.Proc, db *doorbell, first sim.Time, period sim.Duration, lastRead sim.Time) {
	db.first, db.period, db.lastRead, db.asleep = first, period, lastRead, false
	p.SetRescheduler(db)
	db.cond.Wait(p)
	p.SetRescheduler(nil)
	if db.asleep {
		return // the kernel already slept to the grid on p's behalf
	}
	if d := sim.Duration(db.readAt(p.Now()) - p.Now()); d > 0 {
		p.Sleep(d)
	}
}

// readAt is the grid instant a waiter woken at now reads at.
func (db *doorbell) readAt(now sim.Time) sim.Time {
	at := sim.NextPollInstant(db.first, db.period, now)
	if at <= db.lastRead {
		at = db.lastRead + sim.Time(db.period)
	}
	return at
}

// Reschedule answers a wake of the waiting process the way it would itself.
// Woken from the condition, it would sleep to its grid instant: the kernel
// does that sleep. At the grid instant it would read; a Sid waiter that would
// find Sid still short of its target would wait on the condition again — short
// is only "not yet" to it, since a poisoned Sid lies past every target — so
// the kernel puts it back there with the read recorded. A read the view cannot answer without
// performing it (a torn-down or invalidated mapping) goes to the waiter.
func (db *doorbell) Reschedule(now sim.Time) (sim.Time, *sim.Cond) {
	if !db.asleep {
		if at := db.readAt(now); at > now {
			db.asleep = true
			return at, nil
		}
	}
	if db.target != 0 {
		if sid, ok := db.r.view.PeekU64(db.r.base + offSid); ok && sid < db.target {
			db.lastRead, db.asleep = now, false
			return 0, &db.cond
		}
	}
	return now, nil
}

// dcheckMAC computes the dCheck proof: possession of secret_dhke bound to
// this stream and challenge, written through the shared region itself.
func dcheckMAC(secret []byte, streamID, challenge uint64) []byte {
	m := hmac.New(sha256.New, secret)
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], streamID)
	binary.LittleEndian.PutUint64(b[8:], challenge)
	m.Write([]byte("srpc-dcheck"))
	m.Write(b[:])
	return m.Sum(nil)
}

// translateFault converts memory errors into stream-level errors.
func translateFault(err error) error {
	var pf *spm.PeerFault
	if errors.As(err, &pf) {
		return fmt.Errorf("%w (failed party: %s)", ErrPeerFailed, pf.Failed)
	}
	var down *spm.PartitionDownError
	if errors.As(err, &down) {
		return fmt.Errorf("%w (own partition restarted)", ErrPeerFailed)
	}
	return err
}

// Expected pins what the caller requires the peer to be (local attestation,
// §IV-A): the enclave measurement from the manifest the caller reviewed, and
// the mOS measurement of the partition it trusts.
type Expected struct {
	EnclaveHash attest.Measurement
	MOSHash     attest.Measurement
}
