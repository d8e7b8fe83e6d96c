// Package wire is the compact binary codec used for mECall arguments,
// results and RPC records. It is deliberately tiny: little-endian integers
// and length-prefixed byte strings over a flat buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoder appends values to a buffer. The zero value is ready to use, so a
// long-lived owner (an sRPC stream, a client) can embed one and Reset it per
// message instead of allocating a buffer per message.
type Encoder struct {
	buf []byte
}

// NewEncoder creates an empty encoder.
func NewEncoder() *Encoder { return &Encoder{} }

// Bytes returns the encoded buffer. It aliases the encoder's storage: it is
// valid until the next Reset, and a later append may or may not move it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Reset empties the encoder, keeping its storage for the next message.
// Slices obtained from Bytes or Reserve before the Reset are overwritten by
// what is encoded after it.
func (e *Encoder) Reset() *Encoder {
	e.buf = e.buf[:0]
	return e
}

// Grow makes room for n more bytes, so the appends that follow do not
// reallocate; sizing a message once is one allocation instead of a doubling
// series.
func (e *Encoder) Grow(n int) *Encoder {
	if cap(e.buf)-len(e.buf) < n {
		buf := make([]byte, len(e.buf), max(len(e.buf)+n, 2*cap(e.buf)))
		copy(buf, e.buf)
		e.buf = buf
	}
	return e
}

// Reserve appends n bytes and returns them for the caller to fill in place —
// a device DMA or a memory-view read lands directly in the message instead of
// in a buffer that is then copied. The bytes are NOT cleared (they hold
// whatever the storage held before), so the caller must fill all n or discard
// the message. The returned slice has its capacity clamped to n and is valid
// until the next append or Reset.
func (e *Encoder) Reserve(n int) []byte {
	at := len(e.buf)
	e.buf = e.Grow(n).buf[:at+n]
	return e.buf[at : at+n : at+n]
}

// BeginBlob opens a length-prefixed byte string whose length is not known
// yet: it appends a placeholder prefix and returns a mark for EndBlob.
// Whatever is appended between the two calls is the blob's content.
func (e *Encoder) BeginBlob() (mark int) {
	e.U32(0)
	return len(e.buf)
}

// EndBlob closes the blob opened at mark by patching its length prefix.
func (e *Encoder) EndBlob(mark int) {
	binary.LittleEndian.PutUint32(e.buf[mark-4:], uint32(len(e.buf)-mark))
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) *Encoder {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte string.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// ErrTruncated reports a decode past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// Decoder reads values sequentially from a buffer.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a buffer.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	// n against the bytes left, not off+n against len: the sum can wrap on a
	// 32-bit int. As a uint a negative n is larger than any buffer.
	if uint(n) > uint(len(d.buf)-d.off) {
		d.err = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a uint32 (0 on error; check Err).
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Count reads a uint32 element count for records of size encoded bytes each
// and checks it against what is left: a count whose records cannot fit in
// the unread bytes fails the decoder with ErrTruncated and reads as 0. A
// decoder that sizes an allocation from the result therefore never asks for
// more memory than the message itself carries.
func (d *Decoder) Count(size int) int {
	n := d.U32()
	if d.err == nil && uint64(n)*uint64(size) > uint64(d.Remaining()) {
		d.err = fmt.Errorf("%w: %d records of %d bytes at offset %d, %d bytes left",
			ErrTruncated, n, size, d.off, d.Remaining())
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// StrRef reads a length-prefixed string WITHOUT copying it: the result aliases
// the decoder's buffer under BlobRef's lifetime rule. It is for a name that
// is only compared or looked up (Names.Intern) before the buffer is reused.
func (d *Decoder) StrRef() []byte {
	n := d.U32()
	return d.take(int(n))
}

// BlobRef reads a length-prefixed byte string WITHOUT copying it: the result
// aliases the decoder's buffer and is only valid while that buffer is — for a
// message decoded out of a recycled staging buffer, until the buffer's owner
// reuses it. Its capacity is clamped to its length, so an append by the
// holder reallocates instead of writing over the bytes that follow the blob
// in the message. Clone it when the bytes must outlive the message.
func (d *Decoder) BlobRef() []byte {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	return b[:len(b):len(b)]
}

// maxNames bounds a Names table: the bytes come from a peer partition, which
// must not be able to grow this side's memory by inventing names.
const maxNames = 64

// Names interns the call and kernel names a long-lived decoder of records
// (an sRPC executor, a device driver) sees over and over, so that naming the
// same call again costs no allocation. The zero value is ready to use. Once
// it holds maxNames distinct names, further new ones are allocated per use
// like Str does.
type Names struct {
	m map[string]string
}

// Intern returns b as a string the caller may keep; b is not retained.
func (n *Names) Intern(b []byte) string {
	if s, ok := n.m[string(b)]; ok { // the conversion in a map index does not allocate
		return s
	}
	s := string(b)
	if len(n.m) < maxNames {
		if n.m == nil {
			n.m = make(map[string]string)
		}
		n.m[s] = s
	}
	return s
}
