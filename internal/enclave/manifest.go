// Package enclave defines the MicroEnclave model (§IV-A): the manifest that
// describes an mEnclave (device type, measured images, mECall table,
// resource caps), the EDL dialect that declares mECalls with their
// synchronous/asynchronous sRPC flags, and the execution-model contract that
// lets one enclave abstraction run CPU, CUDA and NPU code.
package enclave

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"cronus/internal/attest"
)

// Resources caps what an mEnclave may consume in its partition. The tag names
// the field in Encode's canonical form.
type Resources struct {
	Memory string `json:"memory"` // e.g. "1G", "256M"
}

// MemoryBytes parses the memory cap. Empty means no explicit cap; a cap of
// 2^64 bytes or more is an error, never a wrapped value.
func (r Resources) MemoryBytes() (uint64, error) {
	s := strings.TrimSpace(r.Memory)
	if s == "" {
		return 0, nil
	}
	mult := uint64(1)
	switch {
	case strings.HasSuffix(s, "G"):
		mult = 1 << 30
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = s[:len(s)-1]
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = s[:len(s)-1]
	}
	n, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("enclave: bad memory cap %q: %w", r.Memory, err)
	}
	hi, bytes := bits.Mul64(n, mult)
	if hi != 0 {
		return 0, fmt.Errorf("enclave: memory cap %q exceeds 2^64 bytes", r.Memory)
	}
	return bytes, nil
}

// Manifest describes one mEnclave, mirroring the paper's Figure 3.
type Manifest struct {
	// DeviceType selects the execution model: "cpu", "gpu" (CUDA) or "npu".
	DeviceType string
	// Images maps file names to hex SHA-256 digests. The mEnclave image
	// (dynamic library / CUDA ELF / NPU program) and the EDL file must be
	// listed here so they are covered by attestation.
	Images map[string]string
	// MECalls names the EDL file (an entry of Images).
	MECalls string
	// Image names the main executable image (an entry of Images; may be
	// empty for devices with fixed functions).
	Image string
	// Resources caps resource usage.
	Resources Resources
}

// ErrManifest is Check's refusal of a manifest that does not describe a
// loadable mEnclave.
var ErrManifest = errors.New("enclave: bad manifest")

// Check refuses a manifest with no device type or no EDL, or whose EDL or
// image Images does not list — the Enclave Manager would load bytes that
// VerifyImages never compared and the measurement never hashed — and returns
// the manifest's memory cap.
func (m Manifest) Check() (memCap uint64, err error) {
	switch {
	case m.DeviceType == "":
		return 0, fmt.Errorf("%w: missing device type", ErrManifest)
	case m.MECalls == "":
		return 0, fmt.Errorf("%w: missing mecalls", ErrManifest)
	}
	if _, ok := m.Images[m.MECalls]; !ok {
		return 0, fmt.Errorf("%w: EDL file %q not measured in images", ErrManifest, m.MECalls)
	}
	if _, ok := m.Images[m.Image]; m.Image != "" && !ok {
		return 0, fmt.Errorf("%w: image %q not measured in images", ErrManifest, m.Image)
	}
	return m.Resources.MemoryBytes()
}

// Encode serializes the manifest canonically (for measurement).
func (m Manifest) Encode() []byte {
	b, err := json.Marshal(struct {
		DeviceType string            `json:"device_type"`
		Images     map[string]string `json:"images"`
		MECalls    string            `json:"mecalls"`
		Image      string            `json:"image"`
		Resources  Resources         `json:"resources"`
	}{m.DeviceType, m.Images, m.MECalls, m.Image, m.Resources})
	if err != nil {
		panic("enclave: manifest encode: " + err.Error())
	}
	return b
}

// VerifyImages checks the provided blobs against the manifest digests: every
// manifest entry must be present and hash-match, mirroring mEnclave load
// (§IV-A "the hash of the mEnclave runtime and image").
func (m Manifest) VerifyImages(files map[string][]byte) error {
	for name, wantHex := range m.Images {
		blob, ok := files[name]
		if !ok {
			return fmt.Errorf("enclave: image %q missing", name)
		}
		got := sha256.Sum256(blob)
		if hex.EncodeToString(got[:]) != strings.ToLower(wantHex) {
			return fmt.Errorf("enclave: image %q hash mismatch", name)
		}
	}
	return nil
}

// HashImage computes the hex digest for a manifest Images entry.
func HashImage(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// Measure computes the enclave measurement covering the manifest and every
// measured image, in canonical order.
func (m Manifest) Measure(files map[string][]byte) attest.Measurement {
	out, _ := m.MeasureCounted(files)
	return out
}

// MeasureCounted is Measure that also returns the length of the manifest's
// canonical encoding it hashed, for a caller that prices the measurement by
// the bytes it covers without encoding the manifest a second time.
func (m Manifest) MeasureCounted(files map[string][]byte) (attest.Measurement, int) {
	enc := m.Encode()
	h := sha256.New()
	h.Write(enc)
	names := make([]string, 0, len(m.Images))
	for n := range m.Images {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(files[n])
	}
	var out attest.Measurement
	h.Sum(out[:0])
	return out, len(enc)
}

// NewManifest builds a manifest from raw files, computing the digests.
func NewManifest(deviceType, edlName, imageName string, files map[string][]byte, res Resources) Manifest {
	images := make(map[string]string, len(files))
	for n, b := range files {
		images[n] = HashImage(b)
	}
	return Manifest{
		DeviceType: deviceType,
		Images:     images,
		MECalls:    edlName,
		Image:      imageName,
		Resources:  res,
	}
}
