package driver

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/devmem"
	"cronus/internal/metrics"
	"cronus/internal/mos"
	"cronus/internal/recycle"
	"cronus/internal/sim"
	"cronus/internal/trace"
	"cronus/internal/wire"
)

// device is what an accelerator HAL needs of its device at Init.
type device interface {
	Name() string
	PubKey() attest.PublicKey
	Authenticate(challenge []byte) []byte
}

// memCalls names a model's memory mECalls and counts the bytes they copy.
type memCalls struct {
	alloc, htoD, dtoH, sync string
	htoDBytes, dtoHBytes    *metrics.Counter
}

// accel is what the GPU and NPU HALs share: Init, IRQs, the cost of a new
// model, and the memory mECalls.
type accel struct {
	kind   string // the mos.HAL device type
	dev    device
	costs  *sim.CostModel
	vendor string
	cert   []byte // vendor CA endorsement of the device key
	calls  memCalls
	nonce  uint64
	irqs   int
}

// DeviceType implements mos.HAL.
func (a *accel) DeviceType() string { return a.kind }

// Init implements mos.HAL: map the BARs (TZPC-checked), challenge the device
// to prove possession of its fused key (authenticity, §IV-A), register the
// key with the SPM for attestation reports, and take the interrupt line.
func (a *accel) Init(p *sim.Proc, sh *mos.Shim) error {
	if err := sh.Ioremap(p); err != nil {
		return err
	}
	a.nonce++
	var challenge [16]byte
	binary.LittleEndian.PutUint64(challenge[:], a.nonce)
	copy(challenge[8:], sh.DeviceName())
	sig := a.dev.Authenticate(challenge[:])
	p.Sleep(a.costs.VerifyFixed)
	if !attest.Verify(a.dev.PubKey(), challenge[:], sig) {
		return fmt.Errorf("driver: device %q failed authenticity check (fabricated accelerator?)", sh.DeviceName())
	}
	sh.RegisterDeviceKey(a.vendor, a.dev.PubKey(), a.cert)
	// request_irq: fault/completion interrupts from the device are routed
	// to this partition's line (secure-world only, spoof-checked by the
	// GIC against the device tree).
	return sh.RequestIRQ(func() { a.irqs++ })
}

// IRQs reports how many device interrupts the driver has handled.
func (a *accel) IRQs() int { return a.irqs }

// enter charges the creation of a model, the mEnclave runtime.
func (a *accel) enter(p *sim.Proc) { p.Sleep(a.costs.EnclaveEntry) }

// memCall serves a memory mECall of a's models — allocate, copy to or from
// the device, synchronize — on mem and reports whether name was one.
// Arguments are consumed in place: an HtoD payload is DMA-copied to the
// device straight out of args, a DtoH lands straight in res, so nothing here
// outlives the call (see enclave.Model).
func memCall[T recycle.Elem](a *accel, p *sim.Proc, mem *devmem.Space[T], name string, args []byte, res *wire.Encoder) (bool, error) {
	d := wire.NewDecoder(args)
	switch name {
	case a.calls.alloc:
		size := d.U64()
		if err := d.Err(); err != nil {
			return true, err
		}
		ptr, err := mem.MemAlloc(size)
		if err != nil {
			return true, err
		}
		res.U64(ptr)
		return true, nil
	case a.calls.htoD:
		dst := d.U64()
		data := d.BlobRef()
		if err := d.Err(); err != nil {
			return true, err
		}
		a.calls.htoDBytes.Add(uint64(len(data)))
		end := trace.Of(p.Kernel()).Span(p, "driver", a.dev.Name(), "dma-htod")
		err := mem.HtoD(p, dst, data)
		end()
		return true, err
	case a.calls.dtoH:
		src := d.U64()
		n := d.U64()
		if err := d.Err(); err != nil {
			return true, err
		}
		if err := mem.CheckRange(src, n); err != nil {
			return true, err
		}
		a.calls.dtoHBytes.Add(n)
		end := trace.Of(p.Kernel()).Span(p, "driver", a.dev.Name(), "dma-dtoh")
		err := mem.DtoH(p, res.U32(uint32(n)).Reserve(int(n)), src)
		end()
		return true, err
	case a.calls.sync:
		// Device-level synchronization: in the model, work already
		// completed when executed; charge the driver round trip.
		p.Sleep(a.costs.DeviceMMIO)
		return true, nil
	}
	return false, nil
}
