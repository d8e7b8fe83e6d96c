// Package mos implements the MicroOS (§III-A): the per-partition operating
// system that runs an Enclave Manager and a Hardware Adaptation Layer. Each
// mOS manages exactly one device; its shim kernel provides the handful of
// kernel functions (memory, MMIO checks, DMA mapping) that let off-the-shelf
// style drivers run inside the partition (§IV-B).
package mos

import (
	"encoding/binary"
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/hw"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// HAL is the Hardware Adaptation Layer contract (§IV-B): it configures,
// attests and virtualizes one device for the Enclave Manager.
type HAL interface {
	// DeviceType names the execution model this device hosts: "cpu",
	// "gpu" or "npu".
	DeviceType() string
	// Init probes and authenticates the device through the shim. It runs
	// at mOS boot and again after every partition restart.
	Init(p *sim.Proc, sh *Shim) error
	// NewModel creates a fresh execution model bound to an isolated
	// hardware context for one mEnclave.
	NewModel(p *sim.Proc) (enclave.Model, error)
}

// MOS is one MicroOS instance.
type MOS struct {
	K     *sim.Kernel
	SPM   *spm.SPM
	Part  *spm.Partition
	Costs *sim.CostModel
	Shim  *Shim
	HAL   HAL
	EM    *EnclaveManager

	// Heartbeat publisher state (StartHeartbeat): the beat period and the
	// current incarnation's publisher proc, tracked so InjectWedge can
	// kill it and the restart hook can respawn it.
	beatEvery sim.Duration
	beatProc  *sim.Proc
}

// Boot starts an mOS in its partition: shim construction, HAL/device
// initialization, Enclave Manager setup, and installation of the restart
// hook so recovery re-initializes the stack (§IV-D step ②).
func Boot(p *sim.Proc, s *spm.SPM, part *spm.Partition, hal HAL) (*MOS, error) {
	m := &MOS{
		K:     s.K,
		SPM:   s,
		Part:  part,
		Costs: s.Costs,
		HAL:   hal,
	}
	m.Shim = &Shim{mos: m}
	m.EM = newEnclaveManager(m)
	if err := hal.Init(p, m.Shim); err != nil {
		return nil, fmt.Errorf("mos %s: HAL init: %w", part.Name, err)
	}
	part.SetRestartHook(func(epoch uint64) {
		// The partition was recovered by the SPM: the device was
		// scrubbed, every enclave in the old incarnation is gone.
		m.EM = newEnclaveManager(m)
		s.K.Spawn(fmt.Sprintf("%s-reinit", part.Name), func(proc *sim.Proc) {
			part.Register(proc)
			defer part.Unregister(proc)
			_ = hal.Init(proc, m.Shim)
		})
		// The old incarnation's heartbeat publisher died with the
		// partition; the fresh one re-arms a new beat page.
		if m.beatEvery > 0 {
			m.startBeats()
		}
	})
	return m, nil
}

// StartHeartbeat opts the partition into watchdog supervision and spawns
// the heartbeat publisher: a registered mOS proc that allocates one
// SPM-visible page, arms it as the partition's heartbeat word, and bumps
// the word every `every` (the cost model's HangPollEvery when zero). The
// publisher is respawned with a fresh page after every partition restart.
func (m *MOS) StartHeartbeat(every sim.Duration) {
	if every <= 0 {
		every = m.Costs.HangPollEvery
	}
	m.beatEvery = every
	m.Part.WatchHangs()
	m.startBeats()
}

// startBeats spawns the heartbeat publisher for the current incarnation.
func (m *MOS) startBeats() {
	proc := m.K.Spawn(m.Part.Name+"-heartbeat", func(p *sim.Proc) {
		m.Part.Register(p)
		defer m.Part.Unregister(p)
		ipa, err := m.Shim.AllocPages(p, 1)
		if err != nil {
			return
		}
		m.Part.ArmHeartbeat(ipa)
		view := m.Shim.View()
		var word [8]byte
		for n := uint64(1); ; n++ {
			p.Sleep(m.beatEvery)
			binary.LittleEndian.PutUint64(word[:], n)
			// A write failure means the incarnation died under us; the
			// replacement publisher belongs to the restart hook.
			if err := view.Write(p, ipa, word[:]); err != nil {
				return
			}
		}
	})
	m.beatProc = proc
}

// InjectWedge models a wedged mOS for the chaos harness: the heartbeat
// publisher is killed while the partition otherwise stays up, so the only
// way the SPM can learn of the hang is the watchdog deadline. Reports
// whether a live publisher was wedged (false when supervision is off or
// the partition is not ready).
func (m *MOS) InjectWedge() bool {
	if m.beatProc == nil || m.beatProc.Dead() || m.beatProc.Killed() {
		return false
	}
	if m.Part.State() != spm.PartReady {
		return false
	}
	m.Part.Unregister(m.beatProc)
	m.K.Kill(m.beatProc)
	m.beatProc = nil
	return true
}

// Shim is the mOS's shim kernel: the LibOS-style layer that gives drivers
// the standard kernel functions (§IV-B: "The shim runtime works as if a
// LibOS for the driver").
type Shim struct {
	mos *MOS
}

// DeviceName returns the device tree node this partition owns.
func (sh *Shim) DeviceName() string { return sh.mos.Part.Device }

// Ioremap validates secure-world access to the partition's device MMIO
// (TZPC-checked) and charges the mapping cost. Drivers call it at probe.
func (sh *Shim) Ioremap(p *sim.Proc) error {
	dev := sh.mos.Part.Device
	if dev == "" {
		return fmt.Errorf("mos: partition %q has no device to ioremap", sh.mos.Part.Name)
	}
	if err := sh.mos.SPM.M.Bus.CheckMMIO(hw.SecureWorld, dev); err != nil {
		return err
	}
	p.Sleep(sh.mos.Costs.MapPage)
	return nil
}

// RequestIRQ registers a secure-world interrupt handler for the
// partition's device line (the driver's request_irq).
func (sh *Shim) RequestIRQ(handler func()) error {
	node, ok := sh.mos.SPM.M.DT.Find(sh.mos.Part.Device)
	if !ok {
		return fmt.Errorf("mos: partition %q has no device for IRQs", sh.mos.Part.Name)
	}
	return sh.mos.SPM.M.GIC.Register(node.IRQ, hw.SecureWorld, handler)
}

// AllocPages allocates secure pages to the partition (kmalloc-at-page
// granularity for drivers and the Enclave Manager).
func (sh *Shim) AllocPages(p *sim.Proc, n int) (uint64, error) {
	ipa, err := sh.mos.SPM.AllocMem(sh.mos.Part, n)
	if err != nil {
		return 0, err
	}
	p.Sleep(sim.Duration(n) * sh.mos.Costs.MapPage)
	return ipa, nil
}

// View returns an mOS-level memory view (IPA addressing).
func (sh *Shim) View() *spm.View {
	return sh.mos.SPM.NewView(sh.mos.Part, nil)
}

// RegisterDeviceKey forwards verified device authenticity material to the
// SPM for inclusion in attestation reports.
func (sh *Shim) RegisterDeviceKey(vendor string, pub attest.PublicKey, cert []byte) {
	sh.mos.SPM.RegisterDeviceKey(sh.mos.Part.Device, vendor, pub, cert)
}
