package hw

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testMachine() *Machine {
	return NewMachine(Config{NormalMemBytes: 1 << 20, SecureMemBytes: 1 << 20})
}

func TestPhysMemReadWriteRoundTrip(t *testing.T) {
	m := testMachine()
	pa, err := m.Mem.AllocPages("normal", 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello, physical world")
	if err := m.Mem.Write(NormalWorld, pa+17, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := m.Mem.Read(NormalWorld, pa+17, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestPhysMemPageCrossing(t *testing.T) {
	m := testMachine()
	pa, _ := m.Mem.AllocPages("normal", 2)
	data := make([]byte, PageSize+100)
	for i := range data {
		data[i] = byte(i)
	}
	start := pa + PA(PageSize-50)
	if err := m.Mem.Write(NormalWorld, start, data[:149]); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 149)
	if err := m.Mem.Read(NormalWorld, start, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:149]) {
		t.Fatal("page-crossing data mismatch")
	}
}

func TestTZASCBlocksNormalWorldFromSecureMemory(t *testing.T) {
	m := testMachine()
	pa, err := m.Mem.AllocPages("secure", 1)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("model weights")
	if err := m.Mem.Write(SecureWorld, pa, secret); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(secret))
	err = m.Mem.Read(NormalWorld, pa, buf)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultTZASC {
		t.Fatalf("err = %v, want TZASC fault", err)
	}
	if err := m.Mem.Write(NormalWorld, pa, []byte("overwrite")); err == nil {
		t.Fatal("normal world wrote secure memory")
	}
	// Secure world still reads its own data.
	if err := m.Mem.Read(SecureWorld, pa, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, secret) {
		t.Fatal("secure data corrupted")
	}
}

func TestTZASCLockPreventsReconfiguration(t *testing.T) {
	m := testMachine()
	m.TZASC.Lock()
	if err := m.TZASC.SetRegion(5, 0, 4096, false); err == nil {
		t.Fatal("locked TZASC accepted reconfiguration")
	}
}

func TestAllocFreeReuseScrubsPage(t *testing.T) {
	m := testMachine()
	pa, _ := m.Mem.AllocPages("secure", 1)
	m.Mem.Write(SecureWorld, pa, []byte("sensitive"))
	if err := m.Mem.FreePage("secure", pa); err != nil {
		t.Fatalf("FreePage: %v", err)
	}
	pa2, _ := m.Mem.AllocPages("secure", 1)
	if pa2 != pa {
		t.Fatalf("free page not reused: %#x vs %#x", pa2, pa)
	}
	buf := make([]byte, 9)
	m.Mem.Read(SecureWorld, pa2, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("recycled page leaked previous contents")
		}
	}
}

func TestRegionExhaustion(t *testing.T) {
	m := NewMachine(Config{NormalMemBytes: 4 * PageSize, SecureMemBytes: 4 * PageSize})
	if _, err := m.Mem.AllocPages("normal", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mem.AllocPages("normal", 1); err == nil {
		t.Fatal("over-allocation succeeded")
	}
}

func TestAddrSpaceTranslateFaults(t *testing.T) {
	a := NewAddrSpace("test")
	a.Map(10, 99, PermR)
	if pfn, f := a.Translate(10, PermR); f != nil || pfn != 99 {
		t.Fatalf("translate: pfn=%d fault=%v", pfn, f)
	}
	if _, f := a.Translate(10, PermW); f == nil || f.Kind != FaultPerm {
		t.Fatalf("want perm fault, got %v", f)
	}
	if _, f := a.Translate(11, PermR); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("want unmapped fault, got %v", f)
	}
	a.Invalidate(10)
	if _, f := a.Translate(10, PermR); f == nil || f.Kind != FaultInvalidated {
		t.Fatalf("want invalidated fault, got %v", f)
	}
	// Invalidated is distinguishable from unmapped: the proceed-trap
	// handler needs to know a mapping was revoked, not never present.
	a.Unmap(10)
	if _, f := a.Translate(10, PermR); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("want unmapped after unmap, got %v", f)
	}
}

func TestAddrSpaceInvalidateWhere(t *testing.T) {
	a := NewAddrSpace("s2")
	a.MapRange(0, 100, 8, PermRW)
	n := a.InvalidateWhere(func(vpn, pfn uint64) bool { return pfn >= 104 })
	if n != 4 {
		t.Fatalf("invalidated %d, want 4", n)
	}
	if _, f := a.Translate(3, PermR); f != nil {
		t.Fatal("entry below cutoff should stay valid")
	}
	if _, f := a.Translate(4, PermR); f == nil || f.Kind != FaultInvalidated {
		t.Fatalf("want invalidated, got %v", f)
	}
}

func TestAddrSpaceGenBumpsOnChange(t *testing.T) {
	a := NewAddrSpace("g")
	g0 := a.Gen()
	a.Map(1, 2, PermR)
	if a.Gen() == g0 {
		t.Fatal("gen did not change on map")
	}
	g1 := a.Gen()
	a.Invalidate(1)
	if a.Gen() == g1 {
		t.Fatal("gen did not change on invalidate")
	}
}

func TestDeviceTreeValidation(t *testing.T) {
	cases := []struct {
		name  string
		nodes []DTNode
		bad   string
	}{
		{
			name: "valid",
			nodes: []DTNode{
				{Name: "gpu0", MMIOBase: 0x1000, MMIOSize: 0x1000, IRQ: 32},
				{Name: "npu0", MMIOBase: 0x2000, MMIOSize: 0x1000, IRQ: 33},
			},
		},
		{
			name: "mmio overlap",
			nodes: []DTNode{
				{Name: "gpu0", MMIOBase: 0x1000, MMIOSize: 0x1001, IRQ: 32},
				{Name: "npu0", MMIOBase: 0x2000, MMIOSize: 0x1000, IRQ: 33},
			},
			bad: "overlap",
		},
		{
			name: "irq spoof",
			nodes: []DTNode{
				{Name: "gpu0", MMIOBase: 0x1000, MMIOSize: 0x1000, IRQ: 32},
				{Name: "npu0", MMIOBase: 0x2000, MMIOSize: 0x1000, IRQ: 32},
			},
			bad: "IRQ",
		},
		{
			name: "duplicate name",
			nodes: []DTNode{
				{Name: "gpu0", MMIOBase: 0x1000, MMIOSize: 0x1000, IRQ: 32},
				{Name: "gpu0", MMIOBase: 0x2000, MMIOSize: 0x1000, IRQ: 33},
			},
			bad: "duplicate",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt := &DeviceTree{}
			for _, n := range tc.nodes {
				if err := dt.Add(n); err != nil {
					t.Fatal(err)
				}
			}
			err := dt.Validate()
			if tc.bad == "" {
				if err != nil {
					t.Fatalf("valid tree rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.bad) {
				t.Fatalf("err = %v, want containing %q", err, tc.bad)
			}
		})
	}
}

func TestDeviceTreeHashDeterministicAndOrderIndependent(t *testing.T) {
	a := &DeviceTree{}
	a.Add(DTNode{Name: "gpu0", Compatible: "nvidia,turing", IRQ: 32})
	a.Add(DTNode{Name: "npu0", Compatible: "vta,fsim", IRQ: 33})
	b := &DeviceTree{}
	b.Add(DTNode{Name: "npu0", Compatible: "vta,fsim", IRQ: 33})
	b.Add(DTNode{Name: "gpu0", Compatible: "nvidia,turing", IRQ: 32})
	if a.Hash() != b.Hash() {
		t.Fatal("hash must be order independent")
	}
	c := &DeviceTree{}
	c.Add(DTNode{Name: "gpu0", Compatible: "nvidia,kepler", IRQ: 32})
	c.Add(DTNode{Name: "npu0", Compatible: "vta,fsim", IRQ: 33})
	if a.Hash() == c.Hash() {
		t.Fatal("hash must change with content")
	}
}

func TestDeviceTreeFreeze(t *testing.T) {
	dt := &DeviceTree{}
	dt.Freeze()
	if err := dt.Add(DTNode{Name: "late"}); err == nil {
		t.Fatal("frozen device tree accepted node")
	}
}

func TestFuseBank(t *testing.T) {
	f := NewFuseBank()
	if err := f.Burn("rot", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(NormalWorld, "rot"); err == nil {
		t.Fatal("normal world read a fuse")
	}
	v, err := f.Read(SecureWorld, "rot")
	if err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("fuse read = %v, %v", v, err)
	}
	v[0] = 99 // caller mutation must not affect the fuse
	v2, _ := f.Read(SecureWorld, "rot")
	if v2[0] != 1 {
		t.Fatal("fuse value aliased to caller buffer")
	}
	f.Lock()
	if err := f.Burn("rot2", []byte{4}); err == nil {
		t.Fatal("locked bank accepted burn")
	}
}

type fakeDevice struct {
	name  string
	reset int
}

func (d *fakeDevice) Name() string { return d.name }
func (d *fakeDevice) Reset()       { d.reset++ }

func TestBusAttachAndTZPC(t *testing.T) {
	m := testMachine()
	dev := &fakeDevice{name: "gpu0"}
	_, err := m.Bus.Attach(dev, DTNode{Name: "gpu0", Secure: true, IRQ: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.CheckMMIO(NormalWorld, "gpu0"); err == nil {
		t.Fatal("normal world touched secure device MMIO")
	}
	if err := m.Bus.CheckMMIO(SecureWorld, "gpu0"); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.ResetDevice("gpu0"); err != nil || dev.reset != 1 {
		t.Fatalf("reset: err=%v count=%d", err, dev.reset)
	}
	// Duplicate attach rejected.
	if _, err := m.Bus.Attach(&fakeDevice{name: "gpu0"}, DTNode{Name: "gpu0"}); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	// Name mismatch rejected.
	if _, err := m.Bus.Attach(&fakeDevice{name: "x"}, DTNode{Name: "y"}); err == nil {
		t.Fatal("mismatched attach accepted")
	}
}

func TestDMAThroughSMMU(t *testing.T) {
	m := testMachine()
	dev := &fakeDevice{name: "gpu0"}
	port, err := m.Bus.Attach(dev, DTNode{Name: "gpu0", Secure: true, IRQ: 32})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := m.Mem.AllocPages("secure", 1)
	// No SMMU mapping yet: DMA must fault.
	buf := make([]byte, 16)
	err = port.Read(0x5000, buf)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultSMMU {
		t.Fatalf("err = %v, want SMMU fault", err)
	}
	// Map IOVA page 5 -> the secure page, read-only.
	m.SMMU.Stream("gpu0").Map(5, pa.PFN(), PermR)
	m.Mem.Write(SecureWorld, pa+8, []byte("dma-data"))
	if err := port.Read(0x5008, buf[:8]); err != nil {
		t.Fatal(err)
	}
	if string(buf[:8]) != "dma-data" {
		t.Fatalf("dma read %q", buf[:8])
	}
	// Write through a read-only mapping must fault.
	if err := port.Write(0x5000, []byte("x")); err == nil {
		t.Fatal("write through RO SMMU mapping succeeded")
	}
}

func TestDMAWorldEnforcedByTZASC(t *testing.T) {
	m := testMachine()
	// A *normal-world* device with an SMMU mapping pointing at secure
	// memory must still be stopped by the TZASC.
	port, err := m.Bus.Attach(&fakeDevice{name: "nic0"}, DTNode{Name: "nic0", Secure: false, IRQ: 40})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := m.Mem.AllocPages("secure", 1)
	m.SMMU.Stream("nic0").Map(7, pa.PFN(), PermRW)
	err = port.Read(7<<PageShift, make([]byte, 4))
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultTZASC {
		t.Fatalf("err = %v, want TZASC fault", err)
	}
}

// Property: physical memory behaves like an array — any sequence of writes
// followed by reads at the same offsets returns the written data.
func TestPhysMemQuickProperty(t *testing.T) {
	m := testMachine()
	pa, _ := m.Mem.AllocPages("normal", 8)
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		at := pa + PA(off)
		if err := m.Mem.Write(NormalWorld, at, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.Mem.Read(NormalWorld, at, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGICSecureLineRegistration(t *testing.T) {
	m := testMachine()
	_, err := m.Bus.Attach(&fakeDevice{name: "gpu0"}, DTNode{Name: "gpu0", Secure: true, IRQ: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Normal world cannot claim a secure line.
	if err := m.GIC.Register(32, NormalWorld, func() {}); err == nil {
		t.Fatal("normal world registered for a secure interrupt")
	}
	fired := 0
	if err := m.GIC.Register(32, SecureWorld, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := m.Bus.RaiseIRQ("gpu0"); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || m.GIC.Delivered(32) != 1 {
		t.Fatalf("fired=%d delivered=%d", fired, m.GIC.Delivered(32))
	}
}

func TestGICInterruptSpoofingRejected(t *testing.T) {
	m := testMachine()
	m.Bus.Attach(&fakeDevice{name: "gpu0"}, DTNode{Name: "gpu0", Secure: true, IRQ: 32})
	m.Bus.Attach(&fakeDevice{name: "nic0"}, DTNode{Name: "nic0", Secure: false, IRQ: 40})
	fired := 0
	m.GIC.Register(32, SecureWorld, func() { fired++ })
	// nic0 (normal world, owns IRQ 40) tries to inject the GPU's line.
	if err := m.GIC.Raise("nic0", 32); err == nil {
		t.Fatal("interrupt spoofing accepted")
	}
	if err := m.GIC.Raise("ghost-device", 32); err == nil {
		t.Fatal("unknown source accepted")
	}
	if fired != 0 {
		t.Fatal("handler ran for a spoofed interrupt")
	}
}

func TestGICLockPreventsReassignment(t *testing.T) {
	m := testMachine()
	m.GIC.Lock()
	if err := m.GIC.ConfigureSecure(5, true); err == nil {
		t.Fatal("locked GIC accepted reconfiguration")
	}
}

// A denial observer belongs to one machine: it sees that machine's TZASC,
// TZPC and SMMU refusals and no other machine's, and a machine or a bare unit
// without one still refuses (and counts) as before.
func TestDenialObserverIsPerMachine(t *testing.T) {
	observed, other := testMachine(), testMachine()
	var seen []FaultKind
	observed.ObserveDenials(func(f *Fault) { seen = append(seen, f.Kind) })
	for _, m := range []*Machine{other, observed} {
		if err := m.TZPC.SetSecure("gpu0", true); err != nil {
			t.Fatal(err)
		}
		if err := m.Mem.Read(NormalWorld, m.SecureBase(), make([]byte, 8)); err == nil {
			t.Fatal("normal world read secure memory")
		}
		if err := m.TZPC.Check(NormalWorld, "gpu0"); err == nil {
			t.Fatal("normal world reached a secure device")
		}
		if _, f := m.SMMU.Translate("gpu0", 0x5000, PermR); f == nil {
			t.Fatal("unmapped DMA translated")
		}
		if m == other && len(seen) != 0 {
			t.Fatalf("observer saw %v from a machine it was not installed on", seen)
		}
	}
	if want := []FaultKind{FaultTZASC, FaultTZPC, FaultSMMU}; !reflect.DeepEqual(seen, want) {
		t.Errorf("observer saw %v, want %v", seen, want)
	}
	tz := NewTZASC()
	if err := tz.SetRegion(0, 0, 1<<20, true); err != nil {
		t.Fatal(err)
	}
	if err := tz.Check(NormalWorld, 0x1000); err == nil {
		t.Fatal("a bare TZASC admitted the normal world to a secure region")
	}
}
