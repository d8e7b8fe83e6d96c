package normal_test

import (
	"errors"
	"strconv"
	"testing"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/normal"
	"cronus/internal/sim"
	"cronus/internal/spm"
)

// relayOS is the unauthenticated Diffie–Hellman relay on an accelerator
// create: it answers the owner's X25519 half and the mOS's each with its own,
// so it holds both sides' secret_dhke, and it opens the stream setup under the
// owner's secret and re-seals it under the mOS's, and the reply back. Every
// message it forwards carries a valid MAC.
type relayOS struct {
	key             *attest.DHKey
	owner, mos      []byte // secret_dhke with the owner and with the mOS
	created, sealed bool
}

func (o *relayOS) Relay(p *sim.Proc, c spm.Call, gate normal.Gate) (spm.Reply, error) {
	switch c.Kind {
	case spm.CallCreate:
		ownerPub := c.DHPub
		c.DHPub = o.key.Pub
		r, err := gate(p, c)
		if err != nil {
			return r, err
		}
		if o.owner, err = o.key.Shared(ownerPub); err != nil {
			return r, err
		}
		if o.mos, err = o.key.Shared(r.DHPub); err != nil {
			return r, err
		}
		r.DHPub, o.created = o.key.Pub, true
		return r, nil
	case spm.CallStreamSetup:
		// The setup channels are srpc's: one pair per stream, labelled by its
		// id and direction, keyed by secret_dhke.
		id := "srpc-setup:" + strconv.FormatUint(c.Stream, 10)
		fromOwner, toEnclave := attest.NewChannel(o.owner, id+":owner->enclave"), attest.NewChannel(o.mos, id+":owner->enclave")
		fromEnclave, toOwner := attest.NewChannel(o.mos, id+":enclave->owner"), attest.NewChannel(o.owner, id+":enclave->owner")
		req, err := fromOwner.Open(c.Msg)
		if err != nil {
			return spm.Reply{}, err
		}
		c.Msg = toEnclave.Seal(req)
		r, err := gate(p, c)
		if err != nil {
			return r, err
		}
		reply, err := fromEnclave.Open(r.Msg)
		if err != nil {
			return r, err
		}
		r.Msg, o.sealed = toOwner.Seal(reply), true
		return r, nil
	}
	return gate(p, c)
}

// TestAcceleratorCreateRelayIsRefused holds the accelerator half of the
// relay defence (DESIGN.md §11): a normal OS that swaps both X25519 halves of
// an OpenCUDA or OpenNPU create and re-seals the stream setup under each
// side's secret gets every sealed message through, but the enclave proves
// secret_dhke through the shared region itself (dCheck), where the OS cannot
// reach, and its proof is keyed by the mOS's secret, not the owner's. The
// create ends in attest.ErrTampered and gives the owner's memory back. The
// CPU session's own create has no such check yet (ROADMAP item 22) and is
// relayed untouched here.
func TestAcceleratorCreateRelayIsRefused(t *testing.T) {
	opens := []struct {
		name string
		open func(*core.Session, *sim.Proc) error
	}{
		{"OpenCUDA", func(s *core.Session, p *sim.Proc) error {
			_, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("vec_add")})
			return err
		}},
		{"OpenNPU", func(s *core.Session, p *sim.Proc) error {
			_, err := s.OpenNPU(p, core.NPUOptions{})
			return err
		}},
	}
	for _, o := range opens {
		t.Run(o.name, func(t *testing.T) {
			relay := &relayOS{}
			var (
				openErr error
				leaked  uint64
			)
			err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
				var err error
				if relay.key, err = attest.NewDHKey([]byte("relay")); err != nil {
					return err
				}
				s, err := pl.NewSession(p, "victim")
				if err != nil {
					return err
				}
				pl.D.Adversary = relay
				before := s.Owner().MemUsed()
				openErr = o.open(s, p)
				leaked = s.Owner().MemUsed() - before
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !relay.created || !relay.sealed {
				t.Fatalf("the relay swapped the create's halves %v and re-sealed the stream setup %v: it must do both", relay.created, relay.sealed)
			}
			if !errors.Is(openErr, attest.ErrTampered) {
				t.Fatalf("%s through the relay: err %v, want attest.ErrTampered", o.name, openErr)
			}
			if leaked != 0 {
				t.Errorf("the refused %s left %d B of the owner's memory in use", o.name, leaked)
			}
		})
	}
}
