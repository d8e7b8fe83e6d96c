// Secure-data example (the paper's §III-D workflow end to end): the user
// attests the platform, derives a session key bound to the attested
// enclave, and only then ships encrypted training data through the
// untrusted world; the CPU mEnclave decrypts it and streams the plaintext
// to the GPU mEnclave over trusted shared memory — the data is never
// visible to the normal world.
package main

import (
	"fmt"
	"log"

	"cronus/internal/attest"
	"cronus/internal/core"
	"cronus/internal/gpu"
	"cronus/internal/provision"
	"cronus/internal/sim"
)

func main() {
	err := core.Run(core.DefaultConfig(), func(pl *core.Platform, p *sim.Proc) error {
		// ① The application's protected session and GPU worker.
		s, err := pl.NewSession(p, "secure-data")
		if err != nil {
			return err
		}
		g, err := s.OpenCUDA(p, core.CUDAOptions{Cubin: gpu.BuildCubin("reduce_sum")})
		if err != nil {
			return err
		}
		defer g.Close(p)

		// ② The user (client) verifies the platform before releasing
		// anything: full chain — service-endorsed AtK, pinned enclave
		// and mOS hashes, frozen device tree, vendor-endorsed GPU key.
		client, err := provision.NewClient([]byte("data-owner"), pl.Verifier, pl.Costs)
		if err != nil {
			return err
		}
		enclaveSeed := []byte("session-provisioning-key") // enclave-private
		enclavePub, err := provision.EnclavePub(enclaveSeed)
		if err != nil {
			return err
		}
		dt := pl.SPM.DTHash()
		report := pl.D.BuildReport(p, 99)
		want := attest.Expected{EnclaveHashes: s.EnclaveMeasurements(), DTHash: &dt, Nonce: 99}
		if err := client.VerifyAndBind(report, want, enclavePub); err != nil {
			return err
		}
		fmt.Println("① attestation verified — client releases its data key")

		// ③ The user encrypts the dataset; the ciphertext crosses the
		// untrusted world.
		samples := make([]float32, 1024)
		for i := range samples {
			samples[i] = float32(i%10) / 10
		}
		blob, err := client.Seal(p, gpu.PackF32(samples))
		if err != nil {
			return err
		}
		fmt.Printf("② dataset sealed: %d ciphertext bytes through the untrusted OS\n", len(blob.Ciphertext))

		// ④ Inside the attested CPU mEnclave: decrypt and stream to the
		// GPU mEnclave over trusted shared memory.
		recv, err := provision.NewReceiver(enclaveSeed, client.Pub(), pl.Costs)
		if err != nil {
			return err
		}
		plaintext, err := recv.Open(p, blob)
		if err != nil {
			return err
		}
		ptr, err := g.MemAlloc(p, uint64(len(plaintext)))
		if err != nil {
			return err
		}
		out, err := g.MemAlloc(p, 4)
		if err != nil {
			return err
		}
		if err := g.HtoD(p, ptr, plaintext); err != nil {
			return err
		}
		if err := g.Launch(p, "reduce_sum", gpu.Dim{len(samples), 1, 1}, ptr, out); err != nil {
			return err
		}
		res, err := g.DtoH(p, out, 4)
		if err != nil {
			return err
		}
		fmt.Printf("③ GPU mEnclave computed over the decrypted data: sum = %.1f\n", gpu.UnpackF32(res)[0])

		// ⑤ A replayed blob is rejected — the normal OS cannot feed the
		// enclave stale data.
		if _, err := recv.Open(p, blob); err != nil {
			fmt.Printf("④ replayed dataset blob rejected: %v\n", err)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
