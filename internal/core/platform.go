// Package core is CRONUS's public API: it boots a complete MicroTEE
// platform (machine, SPM, per-device partitions and mOSes, normal-world
// dispatcher, attestation infrastructure) and gives applications the
// Session abstraction from the paper's workflow (§III-D): a protected CPU
// mEnclave that creates accelerator mEnclaves and drives them over sRPC.
package core

import (
	"fmt"

	"cronus/internal/attest"
	"cronus/internal/enclave"
	"cronus/internal/gpu"
	"cronus/internal/hw"
	"cronus/internal/metrics"
	"cronus/internal/mos"
	"cronus/internal/mos/driver"
	"cronus/internal/normal"
	"cronus/internal/npu"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
	"cronus/internal/trace"
)

// mRemoteAttests counts full client-side remote attestation round trips.
var mRemoteAttests = metrics.Default.Counter("attest.remote_attestations")

// Config picks what a platform carries. The devices themselves are the
// paper's testbed (Table II), stated once in gpu.TuringConfig and
// npu.DefaultConfig, and the machine has normalMemBytes + secureMemBytes of
// DRAM.
type Config struct {
	GPUs int
	MPS  bool // spatial sharing on the GPUs
	NPUs int

	// Costs overrides the virtual-time cost model (nil = DefaultCosts).
	// Used by the ablation experiments to sweep architectural parameters.
	Costs *sim.CostModel
}

// The machine's DRAM, scaled down for simulation.
const (
	normalMemBytes = 256 << 20
	secureMemBytes = 256 << 20 // TZASC-protected
)

// DefaultConfig mirrors the paper's testbed shape (Table II): one Turing GPU
// with MPS, one VTA NPU, 256 MiB of secure memory (scaled down for
// simulation).
func DefaultConfig() Config {
	return Config{GPUs: 1, MPS: true, NPUs: 1}
}

// GPUNode bundles one GPU with its partition and mOS.
type GPUNode struct {
	Dev  *gpu.Device
	Part *spm.Partition
	OS   *mos.MOS
}

// NPUNode bundles one NPU with its partition and mOS.
type NPUNode struct {
	Dev  *npu.Device
	Part *spm.Partition
	OS   *mos.MOS
}

// Platform is a booted CRONUS machine.
type Platform struct {
	K     *sim.Kernel
	M     *hw.Machine
	SPM   *spm.SPM
	D     *normal.Dispatcher
	Costs *sim.CostModel

	CPUOS *mos.MOS
	GPUs  []GPUNode
	NPUs  []NPUNode

	Verifier *attest.Verifier

	// gates are the partitions' SMC handlers, in boot order; servers the
	// sRPC endpoints of the enclaves created through them.
	gates   []*mosGate
	servers map[uint32]*srpc.Server

	// salt is the node fuse (BuildNode), folded into the seeds of the DH
	// keys the platform's sessions make; empty on a single platform.
	salt string

	// cudaEDL and npuEDL are driver.CUDAEDL and driver.NPUEDL parsed once,
	// the tables the owner side of every stream to a CUDA or NPU mEnclave
	// reads. The mOS parses its own, from the bytes it is sent.
	cudaEDL, npuEDL *enclave.EDL
}

// BuildPlatform boots a platform inside simulated process p: device tree
// construction and validation, SPM boot (TZASC/TZPC/fuse lock-down), key
// endorsement, then partition creation and mOS boot, each mOS reachable
// through the SMC gate and the dispatcher (BootMOS). It is BuildNode's node 0.
func BuildPlatform(p *sim.Proc, cfg Config) (*Platform, error) {
	return BuildNode(p, cfg, 0)
}

// BuildNode boots node i of a pool of machines. Every key a platform holds
// comes from its fuses: the root of trust and, from it, the attestation key
// and the local seal key; the accelerators' device keys; the seeds of the DH
// keys its mOSes and sessions make. Node i > 0 burns a node fuse that salts
// all of them, so no two nodes share a key or a secret_dhke; node 0 burns
// none and has exactly a single platform's keys.
func BuildNode(p *sim.Proc, cfg Config, node int) (*Platform, error) {
	k := p.Kernel()
	costs := cfg.Costs
	if costs == nil {
		costs = sim.DefaultCosts()
	}
	m := hw.NewMachine(hw.Config{NormalMemBytes: normalMemBytes, SecureMemBytes: secureMemBytes})
	k.AtShutdown(m.Mem.Release)
	if err := m.Fuses.Burn("platform-rot", []byte("cronus-platform-rot")); err != nil {
		return nil, err
	}
	var salt string
	if node > 0 {
		salt = fmt.Sprintf("/node%d", node)
		if err := m.Fuses.Burn(spm.NodeFuse, []byte(salt)); err != nil {
			return nil, err
		}
	}

	var gdevs []*gpu.Device
	for i := 0; i < cfg.GPUs; i++ {
		name := fmt.Sprintf("gpu%d", i)
		gcfg := gpu.TuringConfig(name)
		gcfg.MPS = cfg.MPS
		gcfg.KeySeed += salt
		d := gpu.New(k, costs, gcfg)
		if _, err := m.Bus.Attach(d, hw.DTNode{
			Name: name, Compatible: "nvidia,turing", Vendor: "nvidia",
			MMIOBase: 0x1000_0000 + uint64(i)*0x100_0000, MMIOSize: 0x100_0000,
			IRQ: 32 + i, Secure: true,
		}); err != nil {
			return nil, err
		}
		gdevs = append(gdevs, d)
	}
	var ndevs []*npu.Device
	for i := 0; i < cfg.NPUs; i++ {
		name := fmt.Sprintf("npu%d", i)
		ncfg := npu.DefaultConfig(name)
		ncfg.KeySeed += salt
		d := npu.New(k, costs, ncfg)
		if _, err := m.Bus.Attach(d, hw.DTNode{
			Name: name, Compatible: "vta,fsim", Vendor: "vta",
			MMIOBase: 0x3000_0000 + uint64(i)*0x10_0000, MMIOSize: 0x10_0000,
			IRQ: 64 + i, Secure: true,
		}); err != nil {
			return nil, err
		}
		ndevs = append(ndevs, d)
	}

	s, err := spm.Boot(k, m, costs)
	if err != nil {
		return nil, err
	}

	svc := attest.NewService([]byte("cronus-attestation-service"))
	svc.RegisterPlatform(s.RoTPub())
	atkCert, err := svc.EndorseAtK(s.RoTPub(), s.AtKPub, s.ProveAtK())
	if err != nil {
		return nil, err
	}
	s.InstallAtKCert(atkCert)
	nvCA := attest.NewVendorCA("nvidia")
	vtaCA := attest.NewVendorCA("vta")
	verifier := attest.NewVerifier(svc.Identity)
	verifier.TrustVendor("nvidia", nvCA.Identity)
	verifier.TrustVendor("vta", vtaCA.Identity)

	pl := &Platform{
		K: k, M: m, SPM: s, D: normal.NewDispatcher(s), Costs: costs,
		Verifier: verifier,
		salt:     salt, servers: make(map[uint32]*srpc.Server),
	}
	if pl.cudaEDL, err = enclave.ParseEDL(driver.CUDAEDL()); err != nil {
		return nil, err
	}
	if pl.npuEDL, err = enclave.ParseEDL(driver.NPUEDL()); err != nil {
		return nil, err
	}

	if pl.CPUOS, err = pl.BootMOS(p, "cpu-part", "", []byte("optee-based CPU mOS image v1"), driver.NewCPU(costs)); err != nil {
		return nil, err
	}
	for i, d := range gdevs {
		os, err := pl.BootMOS(p, fmt.Sprintf("gpu-part%d", i), d.Name(), []byte("nouveau+gdev GPU mOS image v1"),
			driver.NewGPU(d, costs, "nvidia", nvCA.EndorseDevice(d.PubKey())))
		if err != nil {
			return nil, err
		}
		pl.GPUs = append(pl.GPUs, GPUNode{Dev: d, Part: os.Part, OS: os})
	}
	for i, d := range ndevs {
		os, err := pl.BootMOS(p, fmt.Sprintf("npu-part%d", i), d.Name(), []byte("vta fsim NPU mOS image v1"),
			driver.NewNPU(d, costs, "vta", vtaCA.EndorseDevice(d.PubKey())))
		if err != nil {
			return nil, err
		}
		pl.NPUs = append(pl.NPUs, NPUNode{Dev: d, Part: os.Part, OS: os})
	}
	return pl, nil
}

// RemoteAttest runs the client-side remote attestation flow (§IV-A): the
// client sends a fresh nonce, the platform returns the signed report, and
// the client verifies the full chain against its trust anchors and pinned
// measurements.
func (pl *Platform) RemoteAttest(p *sim.Proc, nonce uint64, want attest.Expected) error {
	mRemoteAttests.Inc()
	defer trace.Of(p.Kernel()).Span(p, "attest", "client", "remote-attest")()
	sr, err := pl.D.BuildReport(p, nonce)
	if err != nil {
		return err
	}
	p.Sleep(pl.Costs.VerifyFixed * 2)
	return pl.Verifier.VerifyReport(sr, want)
}

// Run boots a platform inside a fresh simulation (sim.Run) and runs body on
// it; the simulation stops when body returns.
func Run(cfg Config, body func(pl *Platform, p *sim.Proc) error) error {
	return sim.Run(func(p *sim.Proc) error {
		pl, err := BuildPlatform(p, cfg)
		if err != nil {
			return err
		}
		return body(pl, p)
	})
}
