package cluster

import (
	"bytes"
	"testing"

	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/sim"
)

// onNodes boots two nodes and a stand-alone platform on one kernel and runs
// body on them.
func onNodes(t *testing.T, body func(p *sim.Proc, nodes []*core.Platform, single *core.Platform) error) {
	t.Helper()
	k := sim.NewKernel()
	var err error
	k.Spawn("main", func(p *sim.Proc) {
		defer k.Stop()
		var nodes []*core.Platform
		if nodes, err = BootNodes(p, 2, core.DefaultConfig()); err != nil {
			return
		}
		var single *core.Platform
		if single, err = core.BuildPlatform(p, core.DefaultConfig()); err != nil {
			return
		}
		err = body(p, nodes, single)
	})
	if runErr := k.Run(); runErr != nil {
		t.Fatal(runErr)
	}
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
}

// TestNodesHaveOwnRootOfTrust: every node of a pool has its own root of
// trust, attestation key and device keys, and node 0's are a single
// platform's, byte for byte.
func TestNodesHaveOwnRootOfTrust(t *testing.T) {
	onNodes(t, func(_ *sim.Proc, nodes []*core.Platform, single *core.Platform) error {
		n0, n1 := nodes[0], nodes[1]
		if bytes.Equal(n0.SPM.AtKPub, n1.SPM.AtKPub) || bytes.Equal(n0.SPM.RoTPub(), n1.SPM.RoTPub()) {
			t.Error("two nodes share a root of trust or an attestation key")
		}
		if bytes.Equal(n0.GPUs[0].Dev.PubKey(), n1.GPUs[0].Dev.PubKey()) ||
			bytes.Equal(n0.NPUs[0].Dev.PubKey(), n1.NPUs[0].Dev.PubKey()) {
			t.Error("gpu0 or npu0 has one device key on both nodes")
		}
		if !bytes.Equal(n0.SPM.AtKPub, single.SPM.AtKPub) || !bytes.Equal(n0.SPM.RoTPub(), single.SPM.RoTPub()) ||
			!bytes.Equal(n0.GPUs[0].Dev.PubKey(), single.GPUs[0].Dev.PubKey()) {
			t.Error("node 0's keys differ from a single platform's")
		}
		return nil
	})
}

// TestNodeRejectsAnotherNodesLocalReport: a local report sealed by node 0's
// SPM verifies there and nowhere else — local attestation is co-location.
func TestNodeRejectsAnotherNodesLocalReport(t *testing.T) {
	onNodes(t, func(p *sim.Proc, nodes []*core.Platform, _ *core.Platform) error {
		sess, err := nodes[0].NewSession(p, "t0")
		if err != nil {
			return err
		}
		rep, mac, err := nodes[0].D.LocalReport(p, sess.EID, 7)
		if err != nil {
			return err
		}
		if !nodes[0].SPM.LSK().Verify(rep, mac) {
			t.Error("node 0 rejects its own local report")
		}
		if nodes[1].SPM.LSK().Verify(rep, mac) {
			t.Error("node 1's SPM accepts a local report sealed on node 0")
		}
		return nil
	})
}

// TestReplicaSecretsDifferAcrossNodes: one tenant's same-named sessions and
// CUDA enclaves on two nodes — the serving plane's replicas — derive
// different secret_dhke, so neither node's mOS can open the other's traffic.
func TestReplicaSecretsDifferAcrossNodes(t *testing.T) {
	onNodes(t, func(p *sim.Proc, nodes []*core.Platform, _ *core.Platform) error {
		var secrets [2][2][]byte
		for i, pl := range nodes {
			sess, err := pl.NewSession(p, "t0")
			if err != nil {
				return err
			}
			conn, err := sess.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("scale"), Partition: "gpu-part0", Name: "t0/r0.1"})
			if err != nil {
				return err
			}
			secrets[i] = [2][]byte{
				pl.D.Server(sess.EID).Enclave().Secret(),
				pl.D.Server(conn.EID).Enclave().Secret(),
			}
			if err := conn.Close(p); err != nil {
				return err
			}
		}
		if bytes.Equal(secrets[0][0], secrets[1][0]) {
			t.Error("the tenant's sessions on node 0 and node 1 share secret_dhke")
		}
		if bytes.Equal(secrets[0][1], secrets[1][1]) {
			t.Error("the tenant's replicas on node 0 and node 1 share secret_dhke")
		}
		return nil
	})
}
