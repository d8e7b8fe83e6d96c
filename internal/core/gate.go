package core

import (
	"fmt"
	"maps"

	"cronus/internal/attest"
	"cronus/internal/mos"
	"cronus/internal/sim"
	"cronus/internal/spm"
	"cronus/internal/srpc"
)

// mosGate is one partition's spm.Handler: it runs calls on the partition's mOS.
type mosGate struct {
	pl *Platform
	os *mos.MOS
}

// BootMOS creates a partition owning device ("" for a CPU partition) and
// boots an mOS on hal in it, whose SMC handler it registers with the SPM and
// whose id, name and device type it tells the dispatcher, as a device tree.
func (pl *Platform) BootMOS(p *sim.Proc, name, device string, image []byte, hal mos.HAL) (*mos.MOS, error) {
	part, err := pl.SPM.CreatePartition(name, device, image)
	if err != nil {
		return nil, err
	}
	m, err := mos.Boot(p, pl.SPM, part, hal)
	if err != nil {
		return nil, err
	}
	g := &mosGate{pl: pl, os: m}
	pl.gates = append(pl.gates, g)
	pl.SPM.RegisterHandler(part.ID, g)
	pl.D.RegisterPartition(part.ID, name, hal.DeviceType())
	return m, nil
}

// Server returns the sRPC endpoint of an enclave (nil if unknown).
func (pl *Platform) Server(eid uint32) *srpc.Server { return pl.servers[eid] }

// Handle implements spm.Handler. A platform report covers every partition,
// whichever one it enters through.
func (g *mosGate) Handle(p *sim.Proc, c spm.Call) (spm.Reply, error) {
	switch c.Kind {
	case spm.CallCreate:
		r, e, err := g.os.EM.Create(p, c.Name, c.Manifest, c.Files, c.DHPub)
		if err == nil {
			g.pl.servers[r.EID] = srpc.NewServer(e, g.pl.D.Notifies())
		}
		return r, err
	case spm.CallInvoke:
		msg, err := g.os.EM.InvokeSealed(p, c.EID, c.Msg)
		return spm.Reply{Msg: msg}, err
	case spm.CallLocalReport:
		r, mac, err := g.os.EM.LocalReport(c.EID, c.Nonce)
		return spm.Reply{Local: r, MAC: mac}, err
	case spm.CallReport:
		enclaves := make(map[string]attest.Measurement)
		for _, o := range g.pl.gates {
			maps.Copy(enclaves, o.os.EM.Measurements())
		}
		return spm.Reply{Report: g.pl.SPM.BuildReport(enclaves, c.Nonce)}, nil
	}
	srv := g.pl.servers[c.EID]
	switch {
	case srv == nil || spm.PartitionID(c.EID>>24) != c.Part:
		return spm.Reply{}, fmt.Errorf("core: %w for eid %#x", srpc.ErrNoEndpoint, c.EID)
	case c.Kind == spm.CallStreamSetup:
		msg, err := srv.HandleSetup(p, c.Stream, c.Msg)
		return spm.Reply{Msg: msg}, err
	}
	run, err := srv.Executor(c.Stream)
	return spm.Reply{Run: run}, err
}
