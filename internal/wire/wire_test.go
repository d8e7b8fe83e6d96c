package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	e := NewEncoder().U32(7).U64(1 << 40).Str("mECall").Blob([]byte{1, 2, 3})
	d := NewDecoder(e.Bytes())
	if d.U32() != 7 || d.U64() != 1<<40 {
		t.Fatal("integer round trip failed")
	}
	if string(d.StrRef()) != "mECall" {
		t.Fatal("string round trip failed")
	}
	if !bytes.Equal(d.BlobRef(), []byte{1, 2, 3}) {
		t.Fatal("blob round trip failed")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestTruncationDetected(t *testing.T) {
	e := NewEncoder().Str("hello")
	buf := e.Bytes()[:3]
	d := NewDecoder(buf)
	_ = d.StrRef()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Errors are sticky.
	_ = d.U32()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatal("error not sticky")
	}
}

// TestTakeBoundIsWidthSafe: a length is checked against the unread bytes,
// never summed with the offset, so neither a negative length (a 2^32-1
// prefix read where int is 32 bits) nor one that would wrap off+n passes.
func TestTakeBoundIsWidthSafe(t *testing.T) {
	for _, n := range []int{-1, math.MinInt, math.MaxInt, math.MaxInt - 1, 4} {
		d := NewDecoder([]byte{1, 2, 3, 4, 5})
		d.take(2)
		if b := d.take(n); b != nil || !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("take(%d) at offset 2 of 5 = %v, err %v; want nil, ErrTruncated", n, b, d.Err())
		}
	}
}

// TestCountBoundedByRemaining: a count whose records fit in the unread bytes
// reads back; one record more is a sticky ErrTruncated that reads as 0.
func TestCountBoundedByRemaining(t *testing.T) {
	for _, tc := range []struct {
		count uint32
		want  int
		err   bool
	}{
		{2, 2, false},
		{3, 0, true},
		{0xFFFFFFFF, 0, true},
	} {
		d := NewDecoder(NewEncoder().U32(tc.count).U64(1).U64(2).Bytes())
		if got := d.Count(8); got != tc.want || errors.Is(d.Err(), ErrTruncated) != tc.err {
			t.Errorf("count %d: Count(8) = %d, err %v; want %d, truncated %v", tc.count, got, d.Err(), tc.want, tc.err)
		}
	}
}

func TestQuickProperty(t *testing.T) {
	f := func(a uint32, b uint64, s string, blob []byte) bool {
		e := NewEncoder().U32(a).U64(b).Str(s).Blob(blob)
		d := NewDecoder(e.Bytes())
		return d.U32() == a && d.U64() == b && string(d.StrRef()) == s &&
			bytes.Equal(d.BlobRef(), blob) && d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBlobRefAliasesWithClampedCap(t *testing.T) {
	raw := NewEncoder().Blob([]byte("abc")).U32(0xfeedface).Bytes()
	d := NewDecoder(raw)
	b := d.BlobRef()
	if string(b) != "abc" || cap(b) != len(b) {
		t.Fatalf("BlobRef = %q cap %d, want \"abc\" cap 3", b, cap(b))
	}
	b[0] = 'X'
	if raw[4] != 'X' {
		t.Fatal("BlobRef copied the blob")
	}
	// An append by the holder must move the bytes, not run over the word
	// that follows the blob in the message.
	_ = append(b, 0, 0, 0, 0)
	if d.U32() != 0xfeedface || d.Err() != nil {
		t.Fatal("append through a BlobRef result overwrote the message")
	}
}

func TestEncoderReuse(t *testing.T) {
	var e Encoder // the zero value is usable
	e.U32(1).Blob(bytes.Repeat([]byte{7}, 100))
	first := &e.Bytes()[0]
	e.Reset().U32(2)
	if got := e.Bytes(); len(got) != 4 || &got[0] != first {
		t.Fatalf("Reset did not keep the storage: len %d", len(got))
	}

	// Reserve hands out exactly n bytes, in place, cap clamped.
	e.Reset().U32(9)
	r := e.Reserve(5)
	if len(r) != 5 || cap(r) != 5 {
		t.Fatalf("Reserve(5): len %d cap %d", len(r), cap(r))
	}
	copy(r, "hello")
	e.U32(3)
	d := NewDecoder(e.Bytes())
	if d.U32() != 9 || string(d.take(5)) != "hello" || d.U32() != 3 || d.Remaining() != 0 {
		t.Fatalf("Reserve bytes not in place: % x", e.Bytes())
	}

	// BeginBlob/EndBlob frame whatever was appended between them as a blob.
	e.Reset().U32(0)
	mark := e.BeginBlob()
	e.U64(42)
	copy(e.Reserve(3), "xyz")
	e.EndBlob(mark)
	d = NewDecoder(e.Bytes())
	if d.U32() != 0 {
		t.Fatal("status word mangled")
	}
	inner := NewDecoder(d.BlobRef())
	if inner.U64() != 42 || string(inner.take(3)) != "xyz" || d.Remaining() != 0 || d.Err() != nil {
		t.Fatalf("BeginBlob/EndBlob framing wrong: % x", e.Bytes())
	}

	// Grow sizes once: the appends that follow stay in the same storage.
	g := NewEncoder().Grow(64)
	g.U32(1)
	p0 := &g.Bytes()[0]
	g.Blob(make([]byte, 50))
	if &g.Bytes()[0] != p0 {
		t.Fatal("append within Grow's room reallocated")
	}
}

// FuzzDecoder drives a decoder over attacker-controlled bytes through an
// attacker-chosen sequence of reads (U32, U64, Count(8), StrRef, BlobRef) and
// holds it to a model that reads the same bytes by offset arithmetic alone. It
// may not panic; it must agree with the model on every value, on the error and
// on how much it consumed; a BlobRef must not expose a byte past its length;
// and no read may write the input.
func FuzzDecoder(f *testing.F) {
	f.Add(NewEncoder().U32(7).U64(1<<40).Str("mECall").Blob([]byte{1, 2, 3}).Bytes(), []byte{0, 1, 3, 4})
	f.Add(NewEncoder().Str("cuMemcpyHtoD").Blob(make([]byte, 40)).Bytes(), []byte{3, 4})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, []byte{4, 4})       // length prefix far past the end
	f.Add([]byte{3, 0, 0, 0, 'a', 'b'}, []byte{4, 0})                  // blob one byte short
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{4, 3, 4}) // empty blobs and strings
	f.Add([]byte{}, []byte{0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		orig := append([]byte(nil), data...)
		d := NewDecoder(data)
		off, failed := 0, false
		take := func(n uint64) []byte {
			if failed || n > uint64(len(orig)-off) {
				failed = true
				return nil
			}
			b := orig[off : off+int(n)]
			off += int(n)
			return b
		}
		u32 := func() uint64 {
			if b := take(4); b != nil {
				return uint64(binary.LittleEndian.Uint32(b))
			}
			return 0
		}
		for _, op := range ops {
			switch op % 5 {
			case 0:
				if got, want := d.U32(), u32(); uint64(got) != want {
					t.Fatalf("U32 = %d, the model reads %d", got, want)
				}
			case 1:
				var want uint64
				if b := take(8); b != nil {
					want = binary.LittleEndian.Uint64(b)
				}
				if got := d.U64(); got != want {
					t.Fatalf("U64 = %d, the model reads %d", got, want)
				}
			case 2:
				want := u32()
				if !failed && want*8 > uint64(len(orig)-off) {
					failed = true
				}
				if failed {
					want = 0
				}
				if got := d.Count(8); uint64(got) != want {
					t.Fatalf("Count(8) = %d, the model reads %d", got, want)
				}
			case 3:
				if got, want := d.StrRef(), take(u32()); !bytes.Equal(got, want) {
					t.Fatalf("StrRef %q, the model reads %q", got, want)
				}
			case 4:
				got, want := d.BlobRef(), take(u32())
				if !bytes.Equal(got, want) {
					t.Fatalf("BlobRef %x, the model reads %x", got, want)
				}
				if cap(got) != len(got) {
					t.Fatalf("BlobRef exposes %d bytes past its %d", cap(got)-len(got), len(got))
				}
			}
			if (d.Err() != nil) != failed || d.Remaining() != len(orig)-off {
				t.Fatalf("decoder err %v, %d bytes left; the model failed %v, %d left", d.Err(), d.Remaining(), failed, len(orig)-off)
			}
			if err := d.Err(); err != nil && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped decode error: %v", err)
			}
		}
		if !bytes.Equal(data, orig) {
			t.Fatal("a read wrote the input")
		}
	})
}

// TestNamesIntern: a name seen before comes back without an allocation and
// without aliasing the bytes it was looked up by, and a peer that invents
// names cannot grow the table past its bound — the names still decode.
func TestNamesIntern(t *testing.T) {
	var names Names
	buf := NewEncoder().Str("cuLaunchKernel").Bytes()
	d := NewDecoder(buf)
	first := names.Intern(d.StrRef())
	if first != "cuLaunchKernel" || d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("interned %q (err %v, %d bytes left)", first, d.Err(), d.Remaining())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if names.Intern(NewDecoder(buf).StrRef()) != first {
			t.Fatal("a repeated name changed")
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations to name a call again, want 0", allocs)
	}
	for i := range buf {
		buf[i] = 0xA5 // the staging buffer is recycled
	}
	if first != "cuLaunchKernel" {
		t.Fatal("the interned name aliases the decoder's buffer")
	}
	for i := 0; i < 4*maxNames; i++ {
		want := fmt.Sprintf("invented-%d", i)
		if got := names.Intern([]byte(want)); got != want {
			t.Fatalf("interned %q as %q", want, got)
		}
	}
	if len(names.m) != maxNames {
		t.Fatalf("the table holds %d names, bound is %d", len(names.m), maxNames)
	}
	if names.Intern([]byte("cuLaunchKernel")) != first {
		t.Fatal("an early name was evicted")
	}
}
