package srpc

import "cronus/internal/sim"

// PushRawFused pushes a fused record carrying descriptor bytes the test built
// itself — what an owner that skips CallZC's own checks could write — with
// notify registered as its completion callback.
func (c *Client) PushRawFused(p *sim.Proc, desc []byte, notify NotifyFn) error {
	putNotify(c.streamID, c.rid, notify)
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
