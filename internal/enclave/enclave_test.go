package enclave

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cronus/internal/sim"
	"cronus/internal/wire"
)

func testFiles() map[string][]byte {
	return map[string][]byte{
		"mat.edl":   BuildEDL(MECallSpec{Name: "mat_add", Async: true}, MECallSpec{Name: "mat_get", Async: false}),
		"mat.cubin": []byte("CUBIN v1\nkernel vec_add\n"),
	}
}

// TestManifestRoundTrip: the canonical encoding the measurement hashes
// carries every field of the manifest, and decodes back to it; the manifest
// NewManifest builds passes Check with its cap and VerifyImages.
func TestManifestRoundTrip(t *testing.T) {
	files := testFiles()
	m := NewManifest("gpu", "mat.edl", "mat.cubin", files, Resources{Memory: "1G"})
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(m.Encode(), &fields); err != nil {
		t.Fatal(err)
	}
	if n := reflect.TypeOf(m).NumField(); len(fields) != n {
		t.Fatalf("Encode carries %d fields, Manifest has %d", len(fields), n)
	}
	var back struct {
		DeviceType string            `json:"device_type"`
		Images     map[string]string `json:"images"`
		MECalls    string            `json:"mecalls"`
		Image      string            `json:"image"`
		Resources  Resources         `json:"resources"`
	}
	if err := json.Unmarshal(m.Encode(), &back); err != nil {
		t.Fatal(err)
	}
	if got := Manifest(back); !reflect.DeepEqual(got, m) {
		t.Fatalf("decoded %+v, encoded %+v", got, m)
	}
	if memCap, err := m.Check(); err != nil || memCap != 1<<30 {
		t.Fatalf("Check = %d, %v; want 1 GiB", memCap, err)
	}
	if err := m.VerifyImages(files); err != nil {
		t.Fatal(err)
	}
}

func TestManifestRejectsTamperedImage(t *testing.T) {
	files := testFiles()
	m := NewManifest("gpu", "mat.edl", "mat.cubin", files, Resources{})
	files["mat.cubin"] = []byte("CUBIN v1\nkernel evil_exfiltrate\n")
	err := m.VerifyImages(files)
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Fatalf("err = %v", err)
	}
}

func TestManifestRejectsMissingImage(t *testing.T) {
	files := testFiles()
	m := NewManifest("gpu", "mat.edl", "mat.cubin", files, Resources{})
	delete(files, "mat.cubin")
	if err := m.VerifyImages(files); err == nil {
		t.Fatal("missing image accepted")
	}
}

func TestManifestValidation(t *testing.T) {
	measured := map[string]string{"a.edl": "00", "a.so": "00"}
	for _, tc := range []struct {
		what string
		m    Manifest
	}{
		{"no mecalls", Manifest{DeviceType: "gpu", Images: measured}},
		{"no device type", Manifest{MECalls: "a.edl", Images: measured}},
		{"unmeasured EDL", Manifest{DeviceType: "gpu", MECalls: "a.edl"}},
		{"unmeasured image", Manifest{DeviceType: "cpu", MECalls: "a.edl", Image: "b.so", Images: measured}},
	} {
		if _, err := tc.m.Check(); !errors.Is(err, ErrManifest) {
			t.Errorf("%s: Check = %v, want ErrManifest", tc.what, err)
		}
	}
	if _, err := (Manifest{DeviceType: "cpu", MECalls: "a.edl", Image: "a.so", Images: measured}).Check(); err != nil {
		t.Fatalf("a complete manifest refused: %v", err)
	}
}

func TestMeasureChangesWithContent(t *testing.T) {
	files := testFiles()
	m := NewManifest("gpu", "mat.edl", "mat.cubin", files, Resources{Memory: "1G"})
	h1 := m.Measure(files)
	files2 := testFiles()
	files2["mat.cubin"] = []byte("CUBIN v1\nkernel other\n")
	m2 := NewManifest("gpu", "mat.edl", "mat.cubin", files2, Resources{Memory: "1G"})
	h2 := m2.Measure(files2)
	if h1 == h2 {
		t.Fatal("measurement insensitive to image content")
	}
	// Deterministic.
	if m.Measure(files) != h1 {
		t.Fatal("measurement not deterministic")
	}
}

func TestMemoryBytesParsing(t *testing.T) {
	cases := map[string]uint64{
		"1G": 1 << 30, "256M": 256 << 20, "4K": 4096, "123": 123, "": 0,
	}
	for s, want := range cases {
		got, err := Resources{Memory: s}.MemoryBytes()
		if err != nil || got != want {
			t.Fatalf("MemoryBytes(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	if _, err := (Resources{Memory: "lots"}).MemoryBytes(); err == nil {
		t.Fatal("garbage memory cap accepted")
	}
}

func TestEDLParsing(t *testing.T) {
	edl, err := ParseEDL([]byte("// comment\n\nmecall foo sync\nmecall bar async\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := edl.Lookup("foo"); !ok || s.Async {
		t.Fatalf("foo = %+v", s)
	}
	if s, ok := edl.Lookup("bar"); !ok || !s.Async {
		t.Fatalf("bar = %+v", s)
	}
	if _, ok := edl.Lookup("baz"); ok {
		t.Fatal("phantom mECall")
	}
}

func TestEDLRejectsBadInput(t *testing.T) {
	bad := []string{
		"mecall foo maybe",
		"syscall foo sync",
		"mecall foo",
		"mecall foo sync\nmecall foo async",
		// A line longer than the scanner's buffer used to end the table
		// there, silently: this one declared nothing and was accepted.
		"mecall " + strings.Repeat("x", 70000) + " sync",
	}
	for _, s := range bad {
		if _, err := ParseEDL([]byte(s)); !errors.Is(err, ErrMalformedEDL) {
			t.Fatalf("EDL %.40q: err %v, want ErrMalformedEDL", s, err)
		}
	}
}

func TestCPUModelLifecycle(t *testing.T) {
	RegisterCPULibrary(&CPULibrary{
		Name: "testlib",
		Funcs: map[string]CPUFunc{
			"double": func(p *sim.Proc, args []byte) ([]byte, error) {
				d := wire.NewDecoder(args)
				v := d.U64()
				return wire.NewEncoder().U64(2 * v).Bytes(), d.Err()
			},
		},
	})
	k := sim.NewKernel()
	k.Spawn("test", func(p *sim.Proc) {
		m := NewCPUModel(sim.DefaultCosts())
		if err := m.Create(p, BuildCPUImage("testlib")); err != nil {
			t.Error(err)
			return
		}
		var res wire.Encoder
		if err := m.Call(p, "double", wire.NewEncoder().U64(21).Bytes(), &res, nil); err != nil {
			t.Error(err)
			return
		}
		if wire.NewDecoder(res.Bytes()).U64() != 42 {
			t.Error("wrong result")
		}
		if err := m.Call(p, "nope", nil, &res, nil); err == nil {
			t.Error("unknown entry point accepted")
		}
		m.Destroy(p)
		if err := m.Call(p, "double", nil, &res, nil); err == nil {
			t.Error("destroyed model still callable")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCPUModelRejectsBadImages(t *testing.T) {
	k := sim.NewKernel()
	k.Spawn("test", func(p *sim.Proc) {
		m := NewCPUModel(sim.DefaultCosts())
		if err := m.Create(p, []byte("ELF...")); err == nil {
			t.Error("garbage image loaded")
		}
		if err := m.Create(p, BuildCPUImage("library-that-does-not-exist")); err == nil {
			t.Error("unknown library loaded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
