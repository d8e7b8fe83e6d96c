package sim

// CostModel holds the calibrated virtual-time costs of the architectural
// operations the CRONUS evaluation is sensitive to. The absolute values are
// representative of the paper's AArch64/QEMU platform; the evaluation claims
// reproduced by this repository depend on the *ratios* (e.g., an S-EL2
// synchronous RPC needs at least four context switches, encrypted RPC pays
// per-byte AES, an mOS restart is ~3 orders of magnitude cheaper than a
// machine reboot), not on the absolute numbers.
type CostModel struct {
	// World / partition switching.
	WorldSwitch     Duration // SMC normal <-> secure world transition
	ContextSwitchS2 Duration // one S-EL2 partition context switch
	EnclaveEntry    Duration // entering/leaving an mEnclave inside a partition
	SyscallTrap     Duration // mOS shim syscall dispatch

	// RPC plumbing.
	RingPush      Duration // enqueue one sRPC record into trusted shared memory
	RingPoll      Duration // one executor poll of the ring indices
	RPCDispatch   Duration // demarshal + mECall table lookup
	SpinlockOp    Duration // CAS on trusted shared memory
	UntrustedMsg  Duration // post + pick up one message via untrusted memory
	ThreadCreate  Duration // normal world creating the executor thread
	StreamSetup   Duration // stream header init in smem (first call only)
	LocalAttest   Duration // local attestation round (report + verify)
	DhkeHandshake Duration // Diffie-Hellman key agreement during create
	VerifyFixed   Duration // asymmetric verification (attestation)
	HashPerByte   float64  // measurement hashing, ns/byte
	AESFixed      Duration // per-message AES-GCM setup (HIX-style RPC)
	AESPerByte    float64  // AES-GCM, ns/byte
	MACFixed      Duration // HMAC over an untrusted-memory message

	// Memory and bus.
	MemcpyPerByte float64  // CPU memcpy inside one address space, ns/byte
	PCIeLatency   Duration // per-transaction PCIe round trip
	PCIePerByte   float64  // PCIe DMA, ns/byte
	MapPage       Duration // stage-1/stage-2 page table update, per page
	SpanCheck     Duration // TZASC + stage-2 span permission check (zero-copy grants)
	PageFaultTrap Duration // trap delivery to the SPM and signal to the mEnclave
	DeviceMMIO    Duration // one MMIO register access

	// Device execution.
	KernelDispatch Duration // driver work to launch one GPU kernel
	NPUCyclePerNs  float64  // NPU cycles executed per virtual ns (clock rate)

	// Failure handling.
	MOSRestart    Duration // clear device + reload + init one mOS
	DeviceClear   Duration // scrub device memory (A3 defence)
	MachineReboot Duration // full platform reboot (monolithic recovery)
	HangPollEvery Duration // SPM watchdog period
}

// DefaultCosts returns the calibrated cost model used by all experiments.
func DefaultCosts() *CostModel {
	return &CostModel{
		WorldSwitch:     2600 * Nanosecond,
		ContextSwitchS2: 3400 * Nanosecond,
		EnclaveEntry:    900 * Nanosecond,
		SyscallTrap:     350 * Nanosecond,

		RingPush:      120 * Nanosecond,
		RingPoll:      80 * Nanosecond,
		RPCDispatch:   260 * Nanosecond,
		SpinlockOp:    60 * Nanosecond,
		UntrustedMsg:  1800 * Nanosecond,
		ThreadCreate:  9000 * Nanosecond,
		StreamSetup:   2400 * Nanosecond,
		LocalAttest:   52 * Microsecond,
		DhkeHandshake: 210 * Microsecond,
		VerifyFixed:   240 * Microsecond,
		HashPerByte:   0.45,
		AESFixed:      1400 * Nanosecond,
		AESPerByte:    0.42,
		MACFixed:      950 * Nanosecond,

		MemcpyPerByte: 0.125, // ~8 GB/s
		PCIeLatency:   900 * Nanosecond,
		PCIePerByte:   0.085, // ~11.7 GB/s
		MapPage:       700 * Nanosecond,
		SpanCheck:     90 * Nanosecond,
		PageFaultTrap: 5200 * Nanosecond,
		DeviceMMIO:    210 * Nanosecond,

		KernelDispatch: 4800 * Nanosecond,
		// The paper's NPU is TVM's fsim functional simulator behind a
		// QEMU PCIe device (§V-B), ~10⁴× slower than 700 MHz silicon —
		// the reason its Figure 10 inference latencies are long.
		NPUCyclePerNs: 0.005,

		MOSRestart:    230 * Millisecond,
		DeviceClear:   60 * Millisecond,
		MachineReboot: 118 * Second,
		HangPollEvery: 10 * Millisecond,
	}
}

// Memcpy returns the virtual time to copy n bytes within one address space.
func (c *CostModel) Memcpy(n int) Duration {
	return Duration(float64(n) * c.MemcpyPerByte)
}

// DMA returns the virtual time for a PCIe DMA transfer of n bytes.
func (c *CostModel) DMA(n int) Duration {
	return c.PCIeLatency + Duration(float64(n)*c.PCIePerByte)
}

// Encrypt returns the virtual time to AES-GCM seal or open n bytes.
func (c *CostModel) Encrypt(n int) Duration {
	return c.AESFixed + Duration(float64(n)*c.AESPerByte)
}

// Hash returns the virtual time to measure n bytes.
func (c *CostModel) Hash(n int) Duration {
	return Duration(float64(n) * c.HashPerByte)
}

// SyncRPCSwitch returns the cost of one synchronous cross-partition call
// direction: per the paper (§IV-C), at least four S-EL2 context switches are
// required to move control from one mEnclave to another.
func (c *CostModel) SyncRPCSwitch() Duration {
	return 4 * c.ContextSwitchS2
}
