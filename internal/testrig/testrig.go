// Package testrig assembles a complete simulated CRONUS platform for tests:
// the machine, a booted SPM, one CPU partition, one GPU partition and one
// NPU partition, each running its mOS, plus the attestation service and
// vendor CAs — so package tests exercise realistic end-to-end stacks without
// re-writing boot plumbing.
package testrig

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/gpu"
	"cronus/internal/hw"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// Rig is a fully booted platform.
type Rig struct {
	K     *sim.Kernel
	M     *hw.Machine
	SPM   *spm.SPM
	Costs *sim.CostModel

	CPUPart *spm.Partition
	GPUPart *spm.Partition
	NPUPart *spm.Partition

	CPUOS *mos.MOS
	GPUOS *mos.MOS
	NPUOS *mos.MOS

	GPU *gpu.Device
	NPU *npu.Device

	Service  *attest.Service
	GPUCA    *attest.VendorCA
	NPUCA    *attest.VendorCA
	Verifier *attest.Verifier
}

// Options tunes the rig.
type Options struct {
	SecureMemBytes uint64
	GPUMemBytes    uint64
	GPUSMs         int
	MPS            bool
	ExtraGPUs      int // additional GPUs gpu1..gpuN with their own partitions
}

// DefaultOptions returns a small-but-realistic rig.
func DefaultOptions() Options {
	return Options{
		SecureMemBytes: 64 << 20,
		GPUMemBytes:    256 << 20,
		GPUSMs:         46,
		MPS:            true,
	}
}

// ExtraGPU holds an additional GPU partition (multi-GPU experiments).
type ExtraGPU struct {
	Part *spm.Partition
	OS   *mos.MOS
	Dev  *gpu.Device
}

// Build boots the platform inside proc p (mOS boot needs simulated time).
// It returns the rig and the extra GPUs, if requested.
func Build(p *sim.Proc, opts Options) (*Rig, []ExtraGPU, error) {
	k := p.Kernel()
	costs := sim.DefaultCosts()
	m := hw.NewMachine(hw.Config{NormalMemBytes: 64 << 20, SecureMemBytes: opts.SecureMemBytes})
	if err := m.Fuses.Burn("platform-rot", []byte("testrig-rot")); err != nil {
		return nil, nil, err
	}

	gpuCfg := gpu.Config{Name: "gpu0", MemBytes: opts.GPUMemBytes, SMs: opts.GPUSMs, CopyEngs: 2, MPS: opts.MPS, KeySeed: "turing/gpu0"}
	gdev := gpu.New(k, costs, gpuCfg)
	if _, err := m.Bus.Attach(gdev, hw.DTNode{
		Name: "gpu0", Compatible: "nvidia,turing", Vendor: "nvidia",
		MMIOBase: 0x1000_0000, MMIOSize: 0x100_0000, IRQ: 32, Secure: true,
	}); err != nil {
		return nil, nil, err
	}
	var extraDevs []*gpu.Device
	for i := 1; i <= opts.ExtraGPUs; i++ {
		name := fmt.Sprintf("gpu%d", i)
		cfg := gpu.Config{Name: name, MemBytes: opts.GPUMemBytes, SMs: opts.GPUSMs, CopyEngs: 2, MPS: opts.MPS, KeySeed: "turing/" + name}
		d := gpu.New(k, costs, cfg)
		if _, err := m.Bus.Attach(d, hw.DTNode{
			Name: name, Compatible: "nvidia,turing", Vendor: "nvidia",
			MMIOBase: 0x1000_0000 + uint64(i)*0x100_0000, MMIOSize: 0x100_0000, IRQ: 32 + i, Secure: true,
		}); err != nil {
			return nil, nil, err
		}
		extraDevs = append(extraDevs, d)
	}

	npuCfg := npu.Config{Name: "npu0", MemBytes: 64 << 20, KeySeed: "vta/npu0"}
	ndev := npu.New(k, costs, npuCfg)
	if _, err := m.Bus.Attach(ndev, hw.DTNode{
		Name: "npu0", Compatible: "vta,fsim", Vendor: "vta",
		MMIOBase: 0x2000_0000, MMIOSize: 0x10_0000, IRQ: 64, Secure: true,
	}); err != nil {
		return nil, nil, err
	}

	s, err := spm.Boot(k, m, costs)
	if err != nil {
		return nil, nil, err
	}

	// Attestation infrastructure.
	svc := attest.NewService([]byte("testrig-service"))
	svc.RegisterPlatform(s.RoTPub())
	cert, err := svc.EndorseAtK(s.RoTPub(), s.AtKPub, s.ProveAtK())
	if err != nil {
		return nil, nil, err
	}
	s.InstallAtKCert(cert)
	gpuCA := attest.NewVendorCA("nvidia")
	npuCA := attest.NewVendorCA("vta")
	verifier := attest.NewVerifier(svc.Identity)
	verifier.TrustVendor("nvidia", gpuCA.Identity)
	verifier.TrustVendor("vta", npuCA.Identity)

	// Partitions and mOSes.
	cpuPart, err := s.CreatePartition("cpu-part", "", []byte("optee-based CPU mOS image"))
	if err != nil {
		return nil, nil, err
	}
	gpuPart, err := s.CreatePartition("gpu-part", "gpu0", []byte("nouveau+gdev GPU mOS image"))
	if err != nil {
		return nil, nil, err
	}
	npuPart, err := s.CreatePartition("npu-part", "npu0", []byte("vta fsim NPU mOS image"))
	if err != nil {
		return nil, nil, err
	}

	cpuOS, err := mos.Boot(p, s, cpuPart, driver.NewCPU(costs))
	if err != nil {
		return nil, nil, err
	}
	gpuOS, err := mos.Boot(p, s, gpuPart, driver.NewGPU(gdev, costs, "nvidia", gpuCA.EndorseDevice(gdev.PubKey())))
	if err != nil {
		return nil, nil, err
	}
	npuOS, err := mos.Boot(p, s, npuPart, driver.NewNPU(ndev, costs, "vta", npuCA.EndorseDevice(ndev.PubKey())))
	if err != nil {
		return nil, nil, err
	}

	var extras []ExtraGPU
	for i, d := range extraDevs {
		part, err := s.CreatePartition(fmt.Sprintf("gpu-part%d", i+1), d.Name(), []byte("nouveau+gdev GPU mOS image"))
		if err != nil {
			return nil, nil, err
		}
		os, err := mos.Boot(p, s, part, driver.NewGPU(d, costs, "nvidia", gpuCA.EndorseDevice(d.PubKey())))
		if err != nil {
			return nil, nil, err
		}
		extras = append(extras, ExtraGPU{Part: part, OS: os, Dev: d})
	}

	return &Rig{
		K: k, M: m, SPM: s, Costs: costs,
		CPUPart: cpuPart, GPUPart: gpuPart, NPUPart: npuPart,
		CPUOS: cpuOS, GPUOS: gpuOS, NPUOS: npuOS,
		GPU: gdev, NPU: ndev,
		Service: svc, GPUCA: gpuCA, NPUCA: npuCA, Verifier: verifier,
	}, extras, nil
}

// Run executes body inside a fresh simulation with a booted rig and runs the
// kernel to completion, returning any simulation error.
func Run(opts Options, body func(rig *Rig, extras []ExtraGPU, p *sim.Proc) error) error {
	k := sim.NewKernel()
	var bodyErr error
	k.Spawn("main", func(p *sim.Proc) {
		// Service loops (sRPC executors, watchdogs) may still be polling
		// when the scenario completes; end the simulation with the body.
		defer k.Stop()
		rig, extras, err := Build(p, opts)
		if err != nil {
			bodyErr = err
			return
		}
		bodyErr = body(rig, extras, p)
	})
	if err := k.Run(); err != nil {
		k.Shutdown()
		return err
	}
	// Unwind leftover service loops (executors, watchdogs) so repeated
	// simulations do not accumulate goroutines.
	k.Shutdown()
	return bodyErr
}
