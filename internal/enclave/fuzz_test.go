package enclave

import (
	"bytes"
	"errors"
	"math/big"
	"slices"
	"strings"
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

// FuzzManifest builds a manifest from arbitrary fields — measured is the
// comma-separated names Images lists — and holds Check, the Enclave Manager's
// admission of a manifest, and MemoryBytes, whose cap it enforces
// (AllocShared), to a model. Check must refuse with ErrManifest exactly when
// the device type or EDL is missing or the EDL or image is not measured, and
// otherwise return MemoryBytes' answer. Neither may panic, and the cap must
// be exactly the count times its suffix or be refused — never a value that
// wrapped at 2^64. The seed corpus is under testdata/fuzz/FuzzManifest.
func FuzzManifest(f *testing.F) {
	f.Add("gpu", "cuda.edl", "mat.cubin", "cuda.edl,mat.cubin", "128M")
	f.Fuzz(func(t *testing.T, device, mecalls, image, measured, memory string) {
		m := Manifest{DeviceType: device, MECalls: mecalls, Image: image, Images: map[string]string{},
			Resources: Resources{Memory: memory}}
		for _, name := range strings.Split(measured, ",") {
			m.Images[name] = "00"
		}
		got, err := m.Resources.MemoryBytes()
		want, ok := exactCap(memory)
		switch {
		case ok && want.IsUint64():
			if err != nil || got != want.Uint64() {
				t.Fatalf("cap %q = %d, %v; want %s", memory, got, err, want)
			}
		case err == nil:
			t.Fatalf("cap %q = %d; want a refusal (exact value %v)", memory, got, want)
		}

		listed := func(name string) bool { return slices.Contains(strings.Split(measured, ","), name) }
		admitted, checkErr := m.Check()
		switch {
		case device == "" || mecalls == "" || !listed(mecalls) || image != "" && !listed(image):
			if !errors.Is(checkErr, ErrManifest) {
				t.Fatalf("Check(%+v) = %d, %v; want ErrManifest", m, admitted, checkErr)
			}
		case errors.Is(checkErr, ErrManifest):
			t.Fatalf("Check(%+v) refused a complete manifest: %v", m, checkErr)
		case admitted != got || (checkErr == nil) != (err == nil):
			t.Fatalf("Check(%+v) = %d, %v; MemoryBytes says %d, %v", m, admitted, checkErr, got, err)
		}
	})
}

// exactCap is the memory cap s denotes in arbitrary precision, or false when s
// is not a decimal count with an optional K, M or G suffix.
func exactCap(s string) (*big.Int, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return new(big.Int), true
	}
	shift := uint(0)
	switch s[len(s)-1] {
	case 'G':
		shift = 30
	case 'M':
		shift = 20
	case 'K':
		shift = 10
	}
	if shift > 0 {
		s = s[:len(s)-1]
	}
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return nil, false
	}
	n, _ := new(big.Int).SetString(s, 10)
	return n.Lsh(n, shift), true
}
