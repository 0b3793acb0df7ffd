// Package tensor provides the dense tensor type used throughout the AIACC
// reproduction. Gradients, model parameters and communication buffers are all
// Tensors: flat float32 storage with an explicit shape. The package also
// provides views (zero-copy slices of the flat storage), element-wise
// reductions used by the collectives, and fp16 conversion used by the
// gradient compression codec.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Common errors returned by tensor operations. They are exported so callers
// can match them with errors.Is.
var (
	// ErrShapeMismatch indicates two tensors participating in a binary
	// operation have different lengths.
	ErrShapeMismatch = errors.New("tensor: shape mismatch")
	// ErrOutOfRange indicates a view or slice request outside the tensor's
	// storage.
	ErrOutOfRange = errors.New("tensor: index out of range")
)

// Tensor is a dense float32 tensor. The zero value is an empty tensor.
//
// Storage is flat and row-major; Shape records the logical dimensions. All
// communication in this codebase treats tensors as flat byte buffers, so the
// shape is metadata carried for bookkeeping (parameter registration, NaN
// reports) rather than for math.
type Tensor struct {
	data  []float32
	shape []int
}

// New allocates a zeroed tensor with the given shape. A nil or empty shape
// produces an empty tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if len(shape) == 0 {
		n = 0
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{data: make([]float32, n), shape: s}
}

// FromSlice wraps data in a 1-D tensor. The tensor takes ownership of the
// slice; callers must not mutate it afterwards.
func FromSlice(data []float32) *Tensor {
	return &Tensor{data: data, shape: []int{len(data)}}
}

// Filled returns a tensor of the given shape with every element set to v.
func Filled(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Bytes returns the storage size in bytes assuming float32 elements.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Shape returns a copy of the logical shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Data returns the underlying storage. The slice aliases the tensor; it is
// exposed for the hot paths in the collectives and optimizers where copying
// would dominate. Callers outside those paths should prefer At/Set.
func (t *Tensor) Data() []float32 { return t.data }

// At returns element i of the flat storage.
func (t *Tensor) At(i int) float32 { return t.data[i] }

// Set assigns element i of the flat storage.
func (t *Tensor) Set(i int, v float32) { t.data[i] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{data: make([]float32, len(t.data)), shape: make([]int, len(t.shape))}
	copy(c.data, t.data)
	copy(c.shape, t.shape)
	return c
}

// CopyFrom copies src's elements into t. The lengths must match.
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(src.data) != len(t.data) {
		return fmt.Errorf("%w: dst %d elements, src %d", ErrShapeMismatch, len(t.data), len(src.data))
	}
	copy(t.data, src.data)
	return nil
}

// View returns a zero-copy 1-D view of t covering [off, off+n). Mutations
// through the view are visible in t.
func (t *Tensor) View(off, n int) (*Tensor, error) {
	if off < 0 || n < 0 || off+n > len(t.data) {
		return nil, fmt.Errorf("%w: view [%d,%d) of %d elements", ErrOutOfRange, off, off+n, len(t.data))
	}
	return &Tensor{data: t.data[off : off+n : off+n], shape: []int{n}}, nil
}

// String implements fmt.Stringer with a compact shape/size description.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.data))
}

// Add accumulates src into t element-wise: t += src.
func (t *Tensor) Add(src *Tensor) error {
	if len(src.data) != len(t.data) {
		return fmt.Errorf("%w: dst %d elements, src %d", ErrShapeMismatch, len(t.data), len(src.data))
	}
	AddSlice(t.data, src.data)
	return nil
}

// Scale multiplies every element by f.
func (t *Tensor) Scale(f float32) {
	for i := range t.data {
		t.data[i] *= f
	}
}

// Dot returns the inner product of t and other.
func (t *Tensor) Dot(other *Tensor) (float64, error) {
	if len(other.data) != len(t.data) {
		return 0, fmt.Errorf("%w: %d vs %d elements", ErrShapeMismatch, len(t.data), len(other.data))
	}
	var sum float64
	for i, v := range t.data {
		sum += float64(v) * float64(other.data[i])
	}
	return sum, nil
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var sum float64
	for _, v := range t.data {
		sum += float64(v)
	}
	return sum
}

// Norm2 returns the L2 norm of the tensor.
func (t *Tensor) Norm2() float64 {
	var sum float64
	for _, v := range t.data {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// HasNaN reports whether any element is NaN or ±Inf, and if so the index of
// the first offending element. AIACC-Training exposes this as a debugging aid
// for users whose training diverges (§IV "Other features").
func (t *Tensor) HasNaN() (bool, int) {
	for i, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true, i
		}
	}
	return false, -1
}

// AddSlice accumulates src into dst element-wise. Lengths must match; this is
// the innermost loop of every reduce operation so it performs no other checks.
//
// It is the reference the fused decode-accumulate kernels are specified
// against bit for bit, and with two NaN operands the sum keeps whichever one
// the compiled ADD has first. Kept out of line so that there is one compiled
// copy and therefore one answer.
//
//go:noinline
func AddSlice(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1] // hoist the bounds check
	for i := range src {
		dst[i] += src[i]
	}
}

// MinSlice writes the element-wise minimum of dst and src into dst: the
// OpMin reduction.
func MinSlice(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i := range src {
		if src[i] < dst[i] {
			dst[i] = src[i]
		}
	}
}

// MaxSlice writes the element-wise maximum of dst and src into dst.
func MaxSlice(dst, src []float32) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i := range src {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// ReduceOp identifies the reduction applied by a collective operation.
type ReduceOp int

// Supported reductions. The zero value is invalid so that an unset op is
// caught early.
const (
	OpSum ReduceOp = iota + 1
	OpMin
	OpMax
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// Apply reduces src into dst according to op, on the calling goroutine.
func (op ReduceOp) Apply(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: %d vs %d elements", ErrShapeMismatch, len(dst), len(src))
	}
	switch op {
	case OpSum:
		AddSlice(dst, src)
	case OpMin:
		MinSlice(dst, src)
	case OpMax:
		MaxSlice(dst, src)
	default:
		return fmt.Errorf("tensor: unknown reduce op %d", int(op))
	}
	return nil
}
