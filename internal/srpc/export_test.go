package srpc

import (
	"errors"

	"cronus/internal/sim"
)

// PushRawFused pushes a fused record carrying descriptor bytes the test built
// itself — what an owner that skips CallZC's own checks could write — with
// notify registered as its completion callback.
func (c *Client) PushRawFused(p *sim.Proc, desc []byte, notify NotifyFn) error {
	c.tr.Notifies().put(c.streamID, c.rid, notify)
	return c.push(p, ZCExecName, desc, nil, kindNotify, 0)
}

// ArenaGeometry returns the callee-side address and slot size of the granted
// arena.
func (c *Client) ArenaGeometry() (peerIPA, slotBytes uint64) {
	return c.arena.peerIPA, c.arena.slotBytes
}

// ZCStagingCap reports how much fused-payload staging the executor of a
// stream currently holds.
func (s *Server) ZCStagingCap(streamID uint64) int { return cap(s.streams[streamID].zc) }

// NextSlot returns the slot index the next record will start at.
func (c *Client) NextSlot() uint64 { return c.rid }

// ReadRecordBySlots reads n bytes of the record starting at slot idx one slot
// at a time, each slot addressed on its own — the slot-by-slot walk the ring
// was written with before records were laid down piecewise, kept here as the
// reference for what the ring must contain.
func (c *Client) ReadRecordBySlots(p *sim.Proc, idx uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for off := 0; off < n; off += SlotSize {
		end := off + SlotSize
		if end > n {
			end = n
		}
		if err := c.ring.view.Read(p, c.ring.slotAddr(idx), out[off:end]); err != nil {
			return nil, err
		}
		idx++
	}
	return out, nil
}

// OffSid is the ring-header offset of the consumer index, the word an owner's
// doorbell watches.
const OffSid = offSid

// DoorbellWait performs one doorbell wait on the owner's ring the way push and
// waitSidPast do — arm on the given 8-byte header words, park until the
// doorbell rings, disarm — calling armed in between. It reports false, having
// waited for nothing, when arming fell back.
func (c *Client) DoorbellWait(p *sim.Proc, armed func(), offs ...uint64) bool {
	var words [2][2]uint64
	for i, off := range offs {
		words[i] = [2]uint64{off, 8}
	}
	db := c.ring.armDoorbell(p.Kernel(), 0, words[:len(offs)]...)
	if db == nil {
		return false
	}
	armed()
	alignedWait(p, db, p.Now(), pollQuantum, p.Now())
	db.disarm()
	return true
}

// RewriteSid stores the consumer index the ring already holds: a write that
// rings the owner's doorbells and changes nothing.
func (c *Client) RewriteSid(p *sim.Proc) error {
	sid, err := c.ring.readU64(p, offSid)
	if err != nil {
		return err
	}
	return c.ring.writeU64(p, offSid, sid)
}

// IdleDoorbells returns how many disarmed doorbells the owner's ring holds.
func (c *Client) IdleDoorbells() int { return len(c.ring.idle) }

// Doorbell waits WaitSid can make, from the doorbell every wake resumes to
// the one armed for its waiter's target.
const (
	WaitResumed  = iota // no Rescheduler: every wake resumes the waiter
	WaitUnarmed         // doorbell armed for 0: every grid read goes to the waiter
	WaitTargeted        // doorbell armed for the target
)

// WaitSid waits the way waitSidPast does — read Sid, and while it is short of
// target wait on a doorbell for the next read on the grid {first + k·period}
// — in one of the three ways above. It returns the Sid read last.
func (c *Client) WaitSid(p *sim.Proc, target uint64, period sim.Duration, mode int) (uint64, error) {
	first := p.Now()
	var db *doorbell
	defer func() {
		if db != nil {
			db.disarm()
		}
	}()
	for {
		sid, err := c.ring.readU64(p, offSid)
		if err != nil || sid >= target {
			return sid, err
		}
		if db == nil {
			armedFor := uint64(0)
			if mode == WaitTargeted {
				armedFor = target
			}
			if db = c.ring.armDoorbell(p.Kernel(), armedFor, [2]uint64{offSid, 8}); db == nil {
				return sid, errors.New("doorbell fell back")
			}
		}
		if mode != WaitResumed {
			alignedWait(p, db, first, period, p.Now())
			continue
		}
		// alignedWait as it was before doorbells answered for their waiters.
		lastRead := p.Now()
		db.cond.Wait(p)
		readAt := sim.NextPollInstant(first, period, p.Now())
		if readAt <= lastRead {
			readAt = lastRead + sim.Time(period)
		}
		if d := sim.Duration(readAt - p.Now()); d > 0 {
			p.Sleep(d)
		}
	}
}

// WriteSid stores v as the consumer index.
func (c *Client) WriteSid(p *sim.Proc, v uint64) error { return c.ring.writeU64(p, offSid, v) }

// InjectRingCorruption XORs the ring header's producer index (Rid) with
// mask, modelling a flipped word in the trusted shared region; the chaos
// harness corrupts a record instead (InjectRecordCorruption). The executor
// must detect the inconsistent header on its next read and surface
// mos.ErrRingCorrupt — by poisoning Sid and publishing a sticky refusal of
// that code — rather than misparse.
func (c *Client) InjectRingCorruption(p *sim.Proc, mask uint64) error {
	if c.closed || c.dead {
		return ErrStreamClosed
	}
	v, err := c.ring.readU64(p, offRid)
	if err != nil {
		return c.fail(err)
	}
	if err := c.ring.writeU64(p, offRid, v^mask); err != nil {
		return c.fail(err)
	}
	return nil
}

// Dead reports whether the stream was torn down by a peer failure.
func (c *Client) Dead() bool { return c.dead }
