// Package grid provides the multidimensional array container used by every
// compressor and experiment in this repository.
//
// Scientific data in the SZ-1.4 paper is a d-dimensional floating-point
// array of size n(1) × n(2) × ... × n(d), where n(1) is the size of the
// lowest (fastest-varying) dimension. Array stores such data in row-major
// order with the last element of Dims being the fastest-varying dimension,
// matching how 2D data sets of size M×N (M rows, N columns) are laid out in
// C and in the original SZ implementation.
package grid

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/scratch"
)

// MaxDims is the maximum number of dimensions supported by the compressors.
const MaxDims = 4

// Sample is the element type a field's samples are held in. The core
// kernels take it as a type parameter, so a float32 field can be
// compressed and reconstructed in its own width (Go compiles the two
// shapes separately, as the original SZ duplicates its code per type);
// arithmetic stays float64 in both.
type Sample interface{ float32 | float64 }

// Array is a dense row-major d-dimensional array of float64 values.
//
// The compressors' Array APIs operate on float64; float32 inputs are
// widened on load and narrowed on store (see Float32s / FromFloat32s).
// The streaming blocked writer and reader instead run the kernels on a
// float32 field's own samples (Sample).
type Array struct {
	// Dims holds the extent of each dimension, slowest-varying first.
	// For a 2D M×N data set, Dims = [M, N].
	Dims []int
	// Data is the row-major backing store, len = product(Dims).
	Data []float64
}

// New allocates a zero-filled Array with the given dimensions.
// It panics if any dimension is non-positive or the total size overflows.
func New(dims ...int) *Array {
	n := checkDims(dims)
	d := make([]int, len(dims))
	copy(d, dims)
	return &Array{Dims: d, Data: make([]float64, n)}
}

// FromData wraps an existing row-major slice, which must have exactly
// product(dims) elements. The slice is not copied.
func FromData(data []float64, dims ...int) (*Array, error) {
	n := checkDims(dims)
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (need %d)", len(data), dims, n)
	}
	d := make([]int, len(dims))
	copy(d, dims)
	return &Array{Dims: d, Data: data}, nil
}

// FromFloat32s widens a float32 slice into a new Array.
func FromFloat32s(data []float32, dims ...int) (*Array, error) {
	n := checkDims(dims)
	if len(data) != n {
		return nil, fmt.Errorf("grid: data length %d does not match dims %v (need %d)", len(data), dims, n)
	}
	a := New(dims...)
	for i, v := range data {
		a.Data[i] = float64(v)
	}
	return a, nil
}

func checkDims(dims []int) int {
	if len(dims) == 0 {
		panic("grid: no dimensions")
	}
	if len(dims) > MaxDims {
		panic(fmt.Sprintf("grid: %d dimensions exceed MaxDims=%d", len(dims), MaxDims))
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("grid: non-positive dimension %d in %v", d, dims))
		}
		if n > math.MaxInt/d {
			panic(fmt.Sprintf("grid: dims %v overflow", dims))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (a *Array) Len() int { return len(a.Data) }

// NDims returns the number of dimensions.
func (a *Array) NDims() int { return len(a.Dims) }

// Strides returns the row-major stride of each dimension in elements.
func (a *Array) Strides() []int {
	s := make([]int, len(a.Dims))
	stride := 1
	for i := len(a.Dims) - 1; i >= 0; i-- {
		s[i] = stride
		stride *= a.Dims[i]
	}
	return s
}

// Index converts a multidimensional coordinate to a flat offset.
// It panics if the coordinate count mismatches or any index is out of range.
func (a *Array) Index(coord ...int) int {
	if len(coord) != len(a.Dims) {
		panic(fmt.Sprintf("grid: coordinate %v does not match dims %v", coord, a.Dims))
	}
	idx := 0
	for i, c := range coord {
		if c < 0 || c >= a.Dims[i] {
			panic(fmt.Sprintf("grid: coordinate %v out of range for dims %v", coord, a.Dims))
		}
		idx = idx*a.Dims[i] + c
	}
	return idx
}

// At returns the element at the given coordinate.
func (a *Array) At(coord ...int) float64 { return a.Data[a.Index(coord...)] }

// Set stores v at the given coordinate.
func (a *Array) Set(v float64, coord ...int) { a.Data[a.Index(coord...)] = v }

// Coord converts a flat offset back to a multidimensional coordinate.
func (a *Array) Coord(idx int) []int {
	if idx < 0 || idx >= len(a.Data) {
		panic(fmt.Sprintf("grid: flat index %d out of range (len %d)", idx, len(a.Data)))
	}
	c := make([]int, len(a.Dims))
	for i := len(a.Dims) - 1; i >= 0; i-- {
		c[i] = idx % a.Dims[i]
		idx /= a.Dims[i]
	}
	return c
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	b := New(a.Dims...)
	copy(b.Data, a.Data)
	return b
}

// Range returns the minimum, maximum, and value range (max−min) of the data.
// NaN values are ignored; if all values are NaN or the array is empty in
// effect, it returns (0, 0, 0).
func (a *Array) Range() (min, max, rng float64) { return RangeOf(a.Data) }

// RangeOf is Array.Range over samples of either width.
func RangeOf[F Sample](data []F) (min, max, rng float64) {
	// Seeding with ±Inf lets the loop run without a first-element branch:
	// NaN fails both comparisons and is skipped implicitly.
	min, max = math.Inf(1), math.Inf(-1)
	for _, s := range data {
		v := float64(s)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min > max { // no non-NaN values seen
		return 0, 0, 0
	}
	return min, max, max - min
}

// Float32s narrows the data to float32. Values outside the float32 range
// saturate to ±Inf per IEEE-754 conversion rules.
func (a *Array) Float32s() []float32 {
	out := make([]float32, len(a.Data))
	for i, v := range a.Data {
		out[i] = float32(v)
	}
	return out
}

// Equal reports whether b has identical dims and bitwise-equal data
// (NaN == NaN under this definition).
func (a *Array) Equal(b *Array) bool {
	if len(a.Dims) != len(b.Dims) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// String summarizes the array shape.
func (a *Array) String() string {
	return fmt.Sprintf("grid.Array%v (%d elements)", a.Dims, len(a.Data))
}

// --- binary serialization ---------------------------------------------------

// DType identifies the element width used when (de)serializing raw data.
type DType uint8

const (
	// Float32 stores each element as an IEEE-754 binary32, little-endian.
	Float32 DType = iota + 1
	// Float64 stores each element as an IEEE-754 binary64, little-endian.
	Float64
)

// Size returns the element size in bytes.
func (t DType) Size() int {
	switch t {
	case Float32:
		return 4
	case Float64:
		return 8
	}
	return 0
}

func (t DType) String() string {
	switch t {
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("DType(%d)", uint8(t))
}

// WriteRaw writes the flat data to w as little-endian values of the given
// type, with no header — the format used for raw scientific data files.
func (a *Array) WriteRaw(w io.Writer, t DType) error {
	buf := scratch.Bytes(8192)
	defer scratch.PutBytes(buf)
	es := t.Size()
	if es == 0 {
		return fmt.Errorf("grid: unknown dtype %v", t)
	}
	off := 0
	flush := func() error {
		if off == 0 {
			return nil
		}
		_, err := w.Write(buf[:off])
		off = 0
		return err
	}
	for _, v := range a.Data {
		if off+es > len(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		switch t {
		case Float32:
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(float32(v)))
		case Float64:
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		}
		off += es
	}
	return flush()
}

// ReadRaw reads product(dims) little-endian values of type t from r.
func ReadRaw(r io.Reader, t DType, dims ...int) (*Array, error) {
	n := checkDims(dims)
	es := t.Size()
	if es == 0 {
		return nil, fmt.Errorf("grid: unknown dtype %v", t)
	}
	raw := make([]byte, n*es)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("grid: reading %d elements: %w", n, err)
	}
	a := New(dims...)
	for i := 0; i < n; i++ {
		switch t {
		case Float32:
			a.Data[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:])))
		case Float64:
			a.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return a, nil
}

// ErrShape is returned when two arrays that must agree in shape do not.
var ErrShape = errors.New("grid: shape mismatch")

// SameShape returns nil when a and b have identical dimensions.
func SameShape(a, b *Array) error {
	if a.NDims() != b.NDims() {
		return fmt.Errorf("%w: %v vs %v", ErrShape, a.Dims, b.Dims)
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return fmt.Errorf("%w: %v vs %v", ErrShape, a.Dims, b.Dims)
		}
	}
	return nil
}

// Slab returns a view Array of the hyperslab [lo, hi) along the slowest
// dimension; the backing data is shared, not copied.
func (a *Array) Slab(lo, hi int) (*Array, error) {
	if lo < 0 || hi > a.Dims[0] || lo >= hi {
		return nil, fmt.Errorf("grid: slab [%d,%d) out of range for dim %d", lo, hi, a.Dims[0])
	}
	stride := 1
	for _, d := range a.Dims[1:] {
		stride *= d
	}
	dims := make([]int, len(a.Dims))
	copy(dims, a.Dims)
	dims[0] = hi - lo
	return &Array{Dims: dims, Data: a.Data[lo*stride : hi*stride]}, nil
}
