package enclave

import (
	"errors"
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

func TestManifestRoundTrip(t *testing.T) {
	files := testFiles()
	m := NewManifest("gpu", "mat.edl", "mat.cubin", files, Resources{Memory: "1G"})
	data := m.Encode()
	m2, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.DeviceType != "gpu" || m2.MECalls != "mat.edl" || m2.Image != "mat.cubin" {
		t.Fatalf("parsed %+v", m2)
	}
	if err := m2.VerifyImages(files); err != nil {
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
	if _, err := ParseManifest([]byte(`{"device_type":"gpu"}`)); err == nil {
		t.Fatal("manifest without mecalls accepted")
	}
	if _, err := ParseManifest([]byte(`{"mecalls":"a.edl","images":{"a.edl":"00"}}`)); err == nil {
		t.Fatal("manifest without device_type accepted")
	}
	if _, err := ParseManifest([]byte(`{"device_type":"gpu","mecalls":"a.edl","images":{}}`)); err == nil {
		t.Fatal("manifest with unmeasured EDL accepted")
	}
	if _, err := ParseManifest([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
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
