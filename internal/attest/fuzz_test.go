package attest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"sort"
	"testing"
)

// The two reports of TestReportEncodeInjective: X, Y and K are 32-byte device
// keys, and the bytes 01 00 00 00 are the length prefix of a one-byte name.
// Without a length prefix on each key, the device section of both reads
// X‖01 00 00 00‖"c"‖Y‖01 00 00 00‖"b"‖K after the entry count and the name
// "a", so one AtK signature would cover both.
func collidingDeviceKeys() (a, b map[string]PublicKey) {
	x := KeyFromSeed([]byte("X")).Public().(PublicKey)
	y := KeyFromSeed([]byte("Y")).Public().(PublicKey)
	k := KeyFromSeed([]byte("K")).Public().(PublicKey)
	cat := func(parts ...[]byte) PublicKey { return PublicKey(bytes.Join(parts, nil)) }
	prefix := []byte{1, 0, 0, 0}
	a = map[string]PublicKey{"a": cat(x, prefix, []byte("c"), y), "b": k}
	b = map[string]PublicKey{"a": x, "c": cat(y, prefix, []byte("b"), k)}
	return a, b
}

func TestReportEncodeInjective(t *testing.T) {
	a, b := collidingDeviceKeys()
	ra := Report{DeviceKeys: a, Nonce: 5}
	rb := Report{DeviceKeys: b, Nonce: 5}
	if bytes.Equal(ra.Encode(), rb.Encode()) {
		t.Fatal("two reports with different device keys share an encoding: one signature covers both")
	}
}

// verifySentinels are VerifyReport's refusals; every error it returns must
// wrap one.
var verifySentinels = []error{
	ErrAtKNotEndorsed, ErrBadSignature, ErrStaleNonce, ErrMeasurementMissing,
	ErrMeasurementMismatch, ErrUntrustedVendor, ErrDeviceNotEndorsed,
}

// encodeDevices is the fuzz input form of a device-key map: per device, a
// length byte and the name, then a length byte and the key.
func encodeDevices(m map[string]PublicKey) []byte {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []byte
	for _, n := range names {
		out = append(out, byte(len(n)))
		out = append(out, n...)
		out = append(out, byte(len(m[n])))
		out = append(out, m[n]...)
	}
	return out
}

// decodeDevices reads encodeDevices' form, up to four devices; a truncated
// entry ends the list.
func decodeDevices(b []byte) map[string]PublicKey {
	m := make(map[string]PublicKey)
	for len(m) < 4 && len(b) > 0 {
		n := int(b[0])
		if len(b) < 1+n+1 {
			break
		}
		name := string(b[1 : 1+n])
		b = b[1+n:]
		k := int(b[0])
		if len(b) < 1+k {
			break
		}
		m[name] = PublicKey(append([]byte{}, b[1:1+k]...))
		b = b[1+k:]
	}
	return m
}

// fuzzChain is the fixed trust anchors of FuzzVerifyReport: the service has
// endorsed the AtK, and the verifier trusts the service and one vendor CA.
type fuzzChain struct {
	v       *Verifier
	atk     PrivateKey
	atkCert []byte
	ca      *VendorCA
}

func newFuzzChain(tb testing.TB) *fuzzChain {
	svc := NewService([]byte("svc"))
	rot := KeyFromSeed([]byte("platform-rot"))
	svc.RegisterPlatform(rot.Public().(PublicKey))
	atk := KeyFromSeed([]byte("atk"))
	atkPub := atk.Public().(PublicKey)
	cert, err := svc.EndorseAtK(rot.Public().(PublicKey), atkPub, Sign(rot, atkPub))
	if err != nil {
		tb.Fatal(err)
	}
	ca := NewVendorCA("nvidia")
	v := NewVerifier(svc.Identity)
	v.TrustVendor(ca.Name, ca.Identity)
	return &fuzzChain{v: v, atk: atk, atkCert: cert, ca: ca}
}

// signed builds a valid signed report over devices (a default GPU when
// empty), every key endorsed by the vendor, and the client pins it matches.
func (fc *fuzzChain) signed(devices map[string]PublicKey) (*SignedReport, Expected) {
	if len(devices) == 0 {
		devices = map[string]PublicKey{"gpu0": KeyFromSeed([]byte("gpu0-fuse")).Public().(PublicKey)}
	}
	dt := Measure([]byte("device tree"))
	r := Report{
		MOSHashes:     map[string]Measurement{"gpu-part": Measure([]byte("gpu mOS image"))},
		EnclaveHashes: map[string]Measurement{"cuda-e": Measure([]byte("cuda runtime+cubin"))},
		DTHash:        dt,
		DeviceKeys:    devices,
		Nonce:         42,
	}
	sr := &SignedReport{
		Report:        r,
		Sig:           Sign(fc.atk, r.Encode()),
		AtK:           fc.atk.Public().(PublicKey),
		AtKCert:       append([]byte{}, fc.atkCert...),
		DeviceCerts:   make(map[string][]byte),
		DeviceVendors: make(map[string]string),
	}
	for name, key := range devices {
		sr.DeviceCerts[name] = fc.ca.EndorseDevice(key)
		sr.DeviceVendors[name] = fc.ca.Name
	}
	want := Expected{
		MOSHashes:     map[string]Measurement{"gpu-part": r.MOSHashes["gpu-part"]},
		EnclaveHashes: map[string]Measurement{"cuda-e": r.EnclaveHashes["cuda-e"]},
		DTHash:        &dt,
		Nonce:         r.Nonce,
	}
	return sr, want
}

// clone deep-copies a signed report and its pins, so a mutation leaves the
// original to compare against.
func clone(sr *SignedReport, want Expected) (*SignedReport, Expected) {
	c := *sr
	c.Sig = append([]byte{}, sr.Sig...)
	c.AtK = append(PublicKey{}, sr.AtK...)
	c.AtKCert = append([]byte{}, sr.AtKCert...)
	c.Report.MOSHashes = copyMap(sr.Report.MOSHashes)
	c.Report.EnclaveHashes = copyMap(sr.Report.EnclaveHashes)
	c.Report.DeviceKeys = make(map[string]PublicKey)
	for k, v := range sr.Report.DeviceKeys {
		c.Report.DeviceKeys[k] = append(PublicKey{}, v...)
	}
	c.DeviceCerts = make(map[string][]byte)
	for k, v := range sr.DeviceCerts {
		c.DeviceCerts[k] = append([]byte{}, v...)
	}
	c.DeviceVendors = copyMap(sr.DeviceVendors)
	w := want
	w.MOSHashes = copyMap(want.MOSHashes)
	w.EnclaveHashes = copyMap(want.EnclaveHashes)
	dt := *want.DTHash
	w.DTHash = &dt
	return &c, w
}

func copyMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// field is one mutable part of a signed report or of the client's pins, as
// bytes: get reads it, set writes it back, drop deletes it where it is a map
// entry of the report. fixed marks a digest or a nonce, whose size a
// mutation keeps.
type field struct {
	get   func() []byte
	set   func([]byte)
	drop  func()
	fixed bool
}

// fields lists what a mutation can reach: the signature, the AtK and its
// endorsement, every signed report field, each device's key, certificate and
// vendor, and the client's pins.
func fields(sr *SignedReport, want *Expected) []field {
	bytesField := func(p *[]byte) field {
		return field{get: func() []byte { return *p }, set: func(b []byte) { *p = b }}
	}
	measField := func(m *Measurement) field {
		return field{get: func() []byte { return m[:] }, set: func(b []byte) { copy(m[:], b) }, fixed: true}
	}
	mapMeas := func(m map[string]Measurement, k string, droppable bool) field {
		f := field{
			get:   func() []byte { h := m[k]; return h[:] },
			set:   func(b []byte) { var h Measurement; copy(h[:], b); m[k] = h },
			fixed: true,
		}
		if droppable {
			f.drop = func() { delete(m, k) }
		}
		return f
	}
	nonceField := func(n *uint64) field {
		return field{
			get: func() []byte { return binary.LittleEndian.AppendUint64(nil, *n) },
			set: func(b []byte) {
				var w [8]byte
				copy(w[:], b)
				*n = binary.LittleEndian.Uint64(w[:])
			},
			fixed: true,
		}
	}
	atk := []byte(sr.AtK)
	fs := []field{
		bytesField(&sr.Sig),
		{get: func() []byte { return atk }, set: func(b []byte) { atk = b; sr.AtK = PublicKey(b) }},
		bytesField(&sr.AtKCert),
		nonceField(&sr.Report.Nonce),
		measField(&sr.Report.DTHash),
		mapMeas(sr.Report.MOSHashes, "gpu-part", true),
		mapMeas(sr.Report.EnclaveHashes, "cuda-e", true),
		nonceField(&want.Nonce),
		mapMeas(want.MOSHashes, "gpu-part", false),
		mapMeas(want.EnclaveHashes, "cuda-e", false),
		measField(want.DTHash),
	}
	names := make([]string, 0, len(sr.Report.DeviceKeys))
	for n := range sr.Report.DeviceKeys {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fs = append(fs,
			field{
				get:  func() []byte { return sr.Report.DeviceKeys[n] },
				set:  func(b []byte) { sr.Report.DeviceKeys[n] = PublicKey(b) },
				drop: func() { delete(sr.Report.DeviceKeys, n) },
			},
			field{
				get:  func() []byte { return sr.DeviceCerts[n] },
				set:  func(b []byte) { sr.DeviceCerts[n] = b },
				drop: func() { delete(sr.DeviceCerts, n) },
			},
			field{
				get:  func() []byte { return []byte(sr.DeviceVendors[n]) },
				set:  func(b []byte) { sr.DeviceVendors[n] = string(b) },
				drop: func() { delete(sr.DeviceVendors, n) },
			})
	}
	return fs
}

// mutate applies ops four bytes at a time — kind, field, position, value —
// each one of: flip bits of a byte, truncate, append a byte, or delete the
// field's map entry. Fixed-size fields keep their size (truncating or
// appending flips instead), and a field without an entry to delete is
// flipped as well.
func mutate(sr *SignedReport, want *Expected, ops []byte) {
	fs := fields(sr, want)
	for ; len(ops) >= 4; ops = ops[4:] {
		f := fs[int(ops[1])%len(fs)]
		pos, val := int(ops[2]), ops[3]
		b := append([]byte{}, f.get()...)
		switch kind := ops[0] % 4; {
		case kind == 1 && !f.fixed:
			b = b[:pos%(len(b)+1)]
		case kind == 2 && !f.fixed:
			b = append(b, val)
		case kind == 3 && f.drop != nil:
			f.drop()
			continue
		default:
			if len(b) == 0 {
				b = append(b, val)
			} else {
				b[pos%len(b)] ^= val
			}
		}
		f.set(b)
	}
}

// FuzzVerifyReport drives VerifyReport with valid reports of fuzzer-chosen
// device sets (devices), optionally presented with another device map under
// the same signature (forged), and with fuzzer-chosen mutations of every
// field, certificate, the signature and the client's pins (ops). The one
// report VerifyReport may accept is the unmodified one; everything else is
// refused with one of its sentinels — and a changed report under an
// unchanged AtK, certificate and signature is refused at the signature,
// which is what an injective encoding guarantees.
func FuzzVerifyReport(f *testing.F) {
	fc := newFuzzChain(f)
	a, b := collidingDeviceKeys()
	f.Add([]byte(nil), []byte(nil), []byte(nil))
	f.Add(encodeDevices(a), encodeDevices(b), []byte(nil))
	f.Add([]byte(nil), []byte(nil), []byte{0, 0, 3, 0x80})          // flip a signature bit
	f.Add([]byte(nil), []byte(nil), []byte{0, 7, 0, 1})             // the client's fresh nonce
	f.Add([]byte(nil), []byte(nil), []byte{3, 5, 0, 0})             // drop the signed mOS entry
	f.Add([]byte(nil), []byte(nil), []byte{2, 13, 0, 'x'})          // rename the vendor
	f.Add(encodeDevices(a), []byte(nil), []byte{1, 11, 32, 0})      // truncate a device key
	f.Add([]byte(nil), []byte(nil), []byte{0, 8, 9, 1, 0, 2, 0, 1}) // mismatch a pin, tamper the AtK cert
	f.Fuzz(func(t *testing.T, devices, forged, ops []byte) {
		orig, origWant := fc.signed(decodeDevices(devices))
		sr, want := clone(orig, origWant)
		if len(forged) > 0 {
			sr.Report.DeviceKeys = decodeDevices(forged)
		}
		mutate(sr, &want, ops)
		err := fc.v.VerifyReport(sr, want)
		unmodified := reflect.DeepEqual(sr, orig) && reflect.DeepEqual(want, origWant)
		switch {
		case unmodified && err != nil:
			t.Fatalf("the unmodified report was refused: %v", err)
		case unmodified:
		case err == nil:
			t.Fatal("a modified report was accepted")
		case !wrapsOne(err):
			t.Fatalf("refusal %q wraps none of VerifyReport's sentinels", err)
		case bytes.Equal(sr.Sig, orig.Sig) && bytes.Equal(sr.AtK, orig.AtK) && bytes.Equal(sr.AtKCert, orig.AtKCert) &&
			!reflect.DeepEqual(sr.Report, orig.Report) && !errors.Is(err, ErrBadSignature):
			t.Fatalf("a changed report passed the signature check (refused later: %v)", err)
		}
	})
}

func wrapsOne(err error) bool {
	for _, s := range verifySentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}
