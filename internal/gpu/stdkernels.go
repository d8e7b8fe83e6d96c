package gpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"cronus/internal/sim"
)

// F32 is a float32 view over device memory bytes.
type F32 []byte

// Len returns the number of float32 elements.
func (f F32) Len() int { return len(f) / 4 }

// Get reads element i.
func (f F32) Get(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(f[i*4:]))
}

// Set writes element i.
func (f F32) Set(i int, v float32) {
	binary.LittleEndian.PutUint32(f[i*4:], math.Float32bits(v))
}

// decodeF32 fills dst with the first len(dst) elements of src.
func decodeF32(dst []float32, src F32) {
	for i := range dst {
		dst[i] = src.Get(i)
	}
}

// encodeF32 stores src into the first len(src) elements of dst.
func encodeF32(dst F32, src []float32) {
	for i, v := range src {
		dst.Set(i, v)
	}
}

// PackF32 encodes a float32 slice into bytes (host-side staging helper).
func PackF32(xs []float32) []byte {
	out := make([]byte, 4*len(xs))
	encodeF32(out, xs)
	return out
}

// UnpackF32 decodes bytes into float32s.
func UnpackF32(b []byte) []float32 {
	out := make([]float32, F32(b).Len())
	decodeF32(out, b)
	return out
}

// Device-wide FMA throughput used by the FLOP-based cost model: ~8 TFLOP/s
// across the full SM pool, i.e. 8000 FLOPs per virtual nanosecond.
const flopsPerNsFullDevice = 8000.0

// FlopCost models a launch by FLOP count: the ideal duration of a kernel whose
// grid performs flops(grid, args) operations while filling the fraction frac
// of the launching device's SMs.
func FlopCost(frac float64, flops func(grid Dim, args []uint64) float64) func(float64, Dim, []uint64) LaunchCost {
	return func(sms float64, grid Dim, args []uint64) LaunchCost {
		demand := sms * frac
		rate := flopsPerNsFullDevice * demand / sms
		return LaunchCost{
			Work:     sim.Duration(flops(grid, args) / rate),
			SMDemand: demand,
		}
	}
}

// MatmulFunc is the body of every matmul kernel: C[M×N] = op(A) × op(B), args
// a, b, c, M, N, K. aT says A is stored K×M, bT that B is stored N×K. The
// variants differ only in the order they walk memory: each C[i,j] adds its K
// products in ascending t, skipping zero A elements, so they all round like
// the textbook triple loop. Operands are decoded into device scratch and C is
// stored after the compute, so C may alias A or B.
func MatmulFunc(aT, bT bool) func(*Exec) error {
	return func(e *Exec) error {
		m, n, k := int(e.Arg(3)), int(e.Arg(4)), int(e.Arg(5))
		ab, err := e.Bytes(e.Arg(0), m*k*4)
		if err != nil {
			return err
		}
		bb, err := e.Bytes(e.Arg(1), k*n*4)
		if err != nil {
			return err
		}
		cb, err := e.Bytes(e.Arg(2), m*n*4)
		if err != nil {
			return err
		}
		s := e.Scratch(m*k + k*n + m*n)
		a, b, c := s[:m*k], s[m*k:m*k+k*n], s[m*k+k*n:]
		decodeF32(a, ab)
		if bT {
			// Transpose while decoding: the loops below read B as K×N rows.
			for j := 0; j < n; j++ {
				for t := 0; t < k; t++ {
					b[t*n+j] = F32(bb).Get(j*k + t)
				}
			}
		} else {
			decodeF32(b, bb)
		}
		clear(c)
		if aT {
			// t outermost: row t of A (its M entries) and row t of B are
			// each read once, contiguously.
			for t := 0; t < k; t++ {
				br := b[t*n : (t+1)*n]
				for i, av := range a[t*m : (t+1)*m] {
					if av != 0 {
						axpy(c[i*n:(i+1)*n], av, br)
					}
				}
			}
		} else {
			for i := 0; i < m; i++ {
				cr := c[i*n : (i+1)*n]
				for t, av := range a[i*k : (i+1)*k] {
					if av != 0 {
						axpy(cr, av, b[t*n:(t+1)*n])
					}
				}
			}
		}
		encodeF32(cb, c)
		return nil
	}
}

// axpy is the matmul inner loop, c[j] += a*b[j] over equal-length rows,
// unrolled four wide (each c[j] still sees one multiply and one add).
func axpy(c []float32, a float32, b []float32) {
	b = b[:len(c)]
	j := 0
	for ; j+3 < len(c); j += 4 {
		c[j] += a * b[j]
		c[j+1] += a * b[j+1]
		c[j+2] += a * b[j+2]
		c[j+3] += a * b[j+3]
	}
	for ; j < len(c); j++ {
		c[j] += a * b[j]
	}
}

// ElemFlops is the FLOP count of a kernel doing perElem operations per grid
// element, for FlopCost.
func ElemFlops(perElem float64) func(Dim, []uint64) float64 {
	return func(g Dim, _ []uint64) float64 { return perElem * float64(g.Elems()) }
}

func init() { RegisterStdKernels() }

// RegisterStdKernels installs the standard kernel library (vector add,
// saxpy, matmul, relu, elementwise scale/sub, reductions) shared by the DNN
// workloads and examples. It runs at package init; a test that replaced one
// of these kernels calls it again to put the shipped ones back.
func RegisterStdKernels() {
	// vec_add: c[i] = a[i] + b[i]; args: a, b, c; grid [n].
	Register(&Kernel{
		Name: "vec_add",
		Cost: FlopCost(0.5, ElemFlops(1)),
		Func: func(e *Exec) error {
			var a, b, c F32
			if err := e.F32s(e.Grid.Elems(), &a, &b, &c); err != nil {
				return err
			}
			for i := 0; i < c.Len(); i++ {
				c.Set(i, a.Get(i)+b.Get(i))
			}
			return nil
		},
	})

	// saxpy: y[i] += alpha*x[i]; args: x, y, alphaBits; grid [n].
	Register(&Kernel{
		Name: "saxpy",
		Cost: FlopCost(0.5, ElemFlops(2)),
		Func: func(e *Exec) error {
			var x, y F32
			if err := e.F32s(e.Grid.Elems(), &x, &y); err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(2)))
			for i := 0; i < y.Len(); i++ {
				y.Set(i, y.Get(i)+alpha*x.Get(i))
			}
			return nil
		},
	})

	// matmul: C[M×N] = A[M×K] × B[K×N]; args: a, b, c, M, N, K.
	Register(&Kernel{
		Name: "matmul",
		Cost: FlopCost(0.75, func(_ Dim, args []uint64) float64 {
			m, n, k := float64(args[3]), float64(args[4]), float64(args[5])
			return 2 * m * n * k
		}),
		Func: MatmulFunc(false, false),
	})

	// relu: y[i] = max(0, x[i]); args: x, y; grid [n].
	Register(&Kernel{
		Name: "relu",
		Cost: FlopCost(0.4, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x, y F32
			if err := e.F32s(e.Grid.Elems(), &x, &y); err != nil {
				return err
			}
			for i := 0; i < y.Len(); i++ {
				v := x.Get(i)
				if v < 0 {
					v = 0
				}
				y.Set(i, v)
			}
			return nil
		},
	})

	// scale: x[i] *= alpha; args: x, alphaBits; grid [n].
	Register(&Kernel{
		Name: "scale",
		Cost: FlopCost(0.4, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x F32
			if err := e.F32s(e.Grid.Elems(), &x); err != nil {
				return err
			}
			alpha := math.Float32frombits(uint32(e.Arg(1)))
			for i := 0; i < x.Len(); i++ {
				x.Set(i, x.Get(i)*alpha)
			}
			return nil
		},
	})

	// sub: c[i] = a[i] - b[i]; args: a, b, c; grid [n].
	Register(&Kernel{
		Name: "sub",
		Cost: FlopCost(0.5, ElemFlops(1)),
		Func: func(e *Exec) error {
			var a, b, c F32
			if err := e.F32s(e.Grid.Elems(), &a, &b, &c); err != nil {
				return err
			}
			for i := 0; i < c.Len(); i++ {
				c.Set(i, a.Get(i)-b.Get(i))
			}
			return nil
		},
	})

	// reduce_sum: out[0] = sum(x); args: x, out; grid [n].
	Register(&Kernel{
		Name: "reduce_sum",
		Cost: FlopCost(0.6, ElemFlops(1)),
		Func: func(e *Exec) error {
			var x F32
			if err := e.F32s(e.Grid.Elems(), &x); err != nil {
				return err
			}
			out, err := e.Bytes(e.Arg(1), 4)
			if err != nil {
				return err
			}
			var s float32
			for i := 0; i < x.Len(); i++ {
				s += x.Get(i)
			}
			F32(out).Set(0, s)
			return nil
		},
	})
}

// FloatBits packs a float32 into a launch argument.
func FloatBits(v float32) uint64 { return uint64(math.Float32bits(v)) }

// CheckFinite validates that a device buffer holds finite float32s — a
// debugging helper used by tests.
func CheckFinite(buf []byte) error {
	f := F32(buf)
	for i := 0; i < f.Len(); i++ {
		v := float64(f.Get(i))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("gpu: non-finite value %v at element %d", v, i)
		}
	}
	return nil
}
