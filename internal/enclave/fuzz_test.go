package enclave

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzEDL feeds arbitrary bytes to ParseEDL, the parser of the mECall table a
// manifest carries. It must never panic: it refuses with an error wrapping
// ErrMalformedEDL, or returns a table. For a table, the by-bytes lookup the
// sealed-call path resolves names with (LookupBytes) must agree with Lookup on
// every declared name, and on probes cut from the input and from the names.
// The seed corpus is under testdata/fuzz/FuzzEDL.
func FuzzEDL(f *testing.F) {
	f.Add(BuildEDL(MECallSpec{Name: "ping"}, MECallSpec{Name: "put", Async: true}))
	f.Fuzz(func(t *testing.T, data []byte) {
		edl, err := ParseEDL(data)
		if err != nil {
			if edl != nil || !errors.Is(err, ErrMalformedEDL) {
				t.Fatalf("refusal %v (table %v) does not wrap ErrMalformedEDL", err, edl)
			}
			return
		}
		agree := func(probe []byte) {
			want, wantOK := edl.Lookup(string(probe))
			got, gotOK := edl.LookupBytes(probe)
			if got != want || gotOK != wantOK {
				t.Fatalf("LookupBytes(%q) = %+v, %v; Lookup says %+v, %v", probe, got, gotOK, want, wantOK)
			}
		}
		for name, spec := range edl.Calls {
			if spec.Name != name {
				t.Fatalf("entry %q holds the spec of %q", name, spec.Name)
			}
			agree([]byte(name))
			agree([]byte(name[:len(name)-1]))
			agree(append([]byte(name), 'x'))
		}
		agree(nil)
		for _, field := range bytes.Fields(data) {
			agree(field)
		}
		for i := 0; i+4 <= len(data) && i < 64; i += 3 {
			agree(data[i : i+4])
		}
	})
}
