package predictor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Table I of the paper: the 2D 1-layer (Lorenzo) and 2-layer formulas.
func TestTable1Layer1Coefficients(t *testing.T) {
	c, err := Coefficients(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"0,1": 1, // V(i0, j0-1)
		"1,0": 1, // V(i0-1, j0)
		"1,1": -1,
	}
	if len(c) != len(want) {
		t.Fatalf("got %d terms, want %d: %v", len(c), len(want), c)
	}
	for k, v := range want {
		if c[k] != v {
			t.Fatalf("coef[%s] = %v, want %v", k, c[k], v)
		}
	}
}

func TestTable1Layer2Coefficients(t *testing.T) {
	c, err := Coefficients(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"1,0": 2, "0,1": 2,
		"1,1": -4, "2,0": -1, "0,2": -1,
		"2,1": 2, "1,2": 2, "2,2": -1,
	}
	if len(c) != len(want) {
		t.Fatalf("got %d terms, want %d: %v", len(c), len(want), c)
	}
	for k, v := range want {
		if c[k] != v {
			t.Fatalf("coef[%s] = %v, want %v", k, c[k], v)
		}
	}
}

func TestTable1Layer3Coefficients(t *testing.T) {
	c, err := Coefficients(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"1,0": 3, "0,1": 3,
		"1,1": -9, "2,0": -3, "0,2": -3,
		"2,1": 9, "1,2": 9, "2,2": -9,
		"3,0": 1, "0,3": 1,
		"3,1": -3, "1,3": -3,
		"3,2": 3, "2,3": 3, "3,3": -1,
	}
	if len(c) != len(want) {
		t.Fatalf("got %d terms, want %d", len(c), len(want))
	}
	for k, v := range want {
		if c[k] != v {
			t.Fatalf("coef[%s] = %v, want %v", k, c[k], v)
		}
	}
}

func TestTable1Layer4Coefficients(t *testing.T) {
	c, err := Coefficients(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"1,0": 4, "0,1": 4, "1,1": -16,
		"2,0": -6, "0,2": -6,
		"2,1": 24, "1,2": 24, "2,2": -36,
		"3,0": 4, "0,3": 4,
		"3,1": -16, "1,3": -16,
		"3,2": 24, "2,3": 24, "3,3": -16,
		"4,0": -1, "0,4": -1,
		"4,1": 4, "1,4": 4,
		"4,2": -6, "2,4": -6,
		"4,3": 4, "3,4": 4, "4,4": -1,
	}
	if len(c) != len(want) {
		t.Fatalf("got %d terms, want %d", len(c), len(want))
	}
	for k, v := range want {
		if c[k] != v {
			t.Fatalf("coef[%s] = %v, want %v", k, c[k], v)
		}
	}
}

func TestStencilSize(t *testing.T) {
	// Interior stencil has (n+1)^d - 1 terms (paper: n(n+2) for d=2).
	for _, tc := range []struct{ n, d, want int }{
		{1, 2, 3}, {2, 2, 8}, {3, 2, 15}, {4, 2, 24},
		{1, 3, 7}, {2, 3, 26}, {1, 1, 1}, {3, 1, 3},
	} {
		dims := make([]int, tc.d)
		for i := range dims {
			dims[i] = 50
		}
		p, err := New(dims, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumTerms() != tc.want {
			t.Fatalf("n=%d d=%d: NumTerms=%d want %d", tc.n, tc.d, p.NumTerms(), tc.want)
		}
		// Paper's d=2 expression n(n+2):
		if tc.d == 2 && p.NumTerms() != tc.n*(tc.n+2) {
			t.Fatalf("n=%d: d=2 stencil should have n(n+2)=%d terms", tc.n, tc.n*(tc.n+2))
		}
	}
}

// polyEval evaluates a 2D polynomial with coefficient grid coefs[i][j] on x^i y^j.
func polyEval2(coefs [][]float64, x, y float64) float64 {
	var v float64
	for i := range coefs {
		for j := range coefs[i] {
			v += coefs[i][j] * math.Pow(x, float64(i)) * math.Pow(y, float64(j))
		}
	}
	return v
}

// TestPolynomialExactness2D verifies Theorem 1: the n-layer predictor is
// exact on polynomial data of total degree <= 2n-1.
func TestPolynomialExactness2D(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	M, N := 16, 16
	for n := 1; n <= 4; n++ {
		maxDeg := 2*n - 1
		coefs := make([][]float64, maxDeg+1)
		for i := range coefs {
			coefs[i] = make([]float64, maxDeg+1)
			for j := range coefs[i] {
				if i+j <= maxDeg {
					coefs[i][j] = rng.Float64()*2 - 1
				}
			}
		}
		data := make([]float64, M*N)
		for i := 0; i < M; i++ {
			for j := 0; j < N; j++ {
				data[i*N+j] = polyEval2(coefs, float64(i), float64(j))
			}
		}
		p, err := New([]int{M, N}, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := n; i < M; i++ {
			for j := n; j < N; j++ {
				idx := i*N + j
				pred := p.Predict(data, idx, []int{i, j})
				if math.Abs(pred-data[idx]) > 1e-6*math.Max(1, math.Abs(data[idx])) {
					t.Fatalf("n=%d at (%d,%d): pred %v != %v", n, i, j, pred, data[idx])
				}
			}
		}
	}
}

// TestPolynomialExactness3D checks the generic formula in 3D, n=1 and 2.
func TestPolynomialExactness3D(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	D0, D1, D2 := 8, 9, 10
	for n := 1; n <= 2; n++ {
		maxDeg := 2*n - 1
		// random polynomial in x,y,z of total degree <= maxDeg
		type mono struct {
			i, j, k int
			c       float64
		}
		var monos []mono
		for i := 0; i <= maxDeg; i++ {
			for j := 0; i+j <= maxDeg; j++ {
				for k := 0; i+j+k <= maxDeg; k++ {
					monos = append(monos, mono{i, j, k, rng.Float64()*2 - 1})
				}
			}
		}
		eval := func(x, y, z float64) float64 {
			var v float64
			for _, m := range monos {
				v += m.c * math.Pow(x, float64(m.i)) * math.Pow(y, float64(m.j)) * math.Pow(z, float64(m.k))
			}
			return v
		}
		data := make([]float64, D0*D1*D2)
		for x := 0; x < D0; x++ {
			for y := 0; y < D1; y++ {
				for z := 0; z < D2; z++ {
					data[(x*D1+y)*D2+z] = eval(float64(x), float64(y), float64(z))
				}
			}
		}
		p, err := New([]int{D0, D1, D2}, n)
		if err != nil {
			t.Fatal(err)
		}
		for x := n; x < D0; x++ {
			for y := n; y < D1; y++ {
				for z := n; z < D2; z++ {
					idx := (x*D1+y)*D2 + z
					pred := p.Predict(data, idx, []int{x, y, z})
					if math.Abs(pred-data[idx]) > 1e-6*math.Max(1, math.Abs(data[idx])) {
						t.Fatalf("n=%d at (%d,%d,%d): pred %v != %v", n, x, y, z, pred, data[idx])
					}
				}
			}
		}
	}
}

// TestPolynomialExactness1D: in 1D the n-layer predictor is exact for
// polynomials of degree <= n-1.
func TestPolynomialExactness1D(t *testing.T) {
	for n := 1; n <= 4; n++ {
		N := 32
		data := make([]float64, N)
		for i := range data {
			// degree n-1 polynomial
			v := 0.0
			for d := 0; d < n; d++ {
				v += float64(d+1) * math.Pow(float64(i), float64(d))
			}
			data[i] = v
		}
		p, err := New([]int{N}, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := n; i < N; i++ {
			pred := p.Predict(data, i, []int{i})
			if math.Abs(pred-data[i]) > 1e-6*math.Max(1, math.Abs(data[i])) {
				t.Fatalf("n=%d at %d: pred %v != %v", n, i, pred, data[i])
			}
		}
	}
}

func TestLorenzoEquals1Layer(t *testing.T) {
	// n=1 must match the explicit Lorenzo formula V(i,j-1)+V(i-1,j)-V(i-1,j-1).
	rng := rand.New(rand.NewSource(4))
	M, N := 10, 12
	data := make([]float64, M*N)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	p, err := New([]int{M, N}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < M; i++ {
		for j := 1; j < N; j++ {
			idx := i*N + j
			want := data[idx-1] + data[idx-N] - data[idx-N-1]
			got := p.Predict(data, idx, []int{i, j})
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got, want)
			}
		}
	}
}

func TestBorderFirstPointIsZero(t *testing.T) {
	p, err := New([]int{5, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 25)
	for i := range data {
		data[i] = 7
	}
	if got := p.Predict(data, 0, []int{0, 0}); got != 0 {
		t.Fatalf("first point prediction = %v, want 0", got)
	}
}

func TestBorderReducesToAvailableLayers(t *testing.T) {
	// On the first row (i=0), prediction must use only the j dimension:
	// with n=2 and j>=2 it behaves as a 1D 2-layer (linear) extrapolation
	// 2V(j-1) - V(j-2).
	p, err := New([]int{4, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 40)
	for j := 0; j < 10; j++ {
		data[j] = 3*float64(j) + 1 // linear in j
	}
	for j := 2; j < 10; j++ {
		got := p.Predict(data, j, []int{0, j})
		if math.Abs(got-data[j]) > 1e-9 {
			t.Fatalf("border j=%d: got %v want %v", j, got, data[j])
		}
	}
	// At j=1 only one layer fits: constant extrapolation V(j-1).
	got := p.Predict(data, 1, []int{0, 1})
	if got != data[0] {
		t.Fatalf("border j=1: got %v want %v", got, data[0])
	}
}

func TestBorderStencilMemoization(t *testing.T) {
	p, err := New([]int{20, 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 400)
	coord := []int{1, 5}
	idx := 25
	a := p.Predict(data, idx, coord)
	b := p.Predict(data, idx, coord) // hits cache
	if a != b {
		t.Fatalf("memoized prediction differs: %v vs %v", a, b)
	}
	if len(p.borderCache) == 0 {
		t.Fatal("border cache unused")
	}
	// A memoized stencil costs a border prediction no allocation.
	if n := testing.AllocsPerRun(100, func() { p.Predict(data, idx, coord) }); n != 0 {
		t.Fatalf("memoized border prediction allocates %v times", n)
	}
}

func TestCoefficientSumIsOne(t *testing.T) {
	// Stencil must reproduce constants: coefficients sum to 1.
	for d := 1; d <= 4; d++ {
		for n := 1; n <= 4; n++ {
			c, err := Coefficients(n, d)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, v := range c {
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("d=%d n=%d: coefficient sum %v != 1", d, n, sum)
			}
		}
	}
}

func TestConstantsPredictedExactlyQuick(t *testing.T) {
	f := func(seed int64, nSel, dSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nSel%4) + 1
		d := int(dSel%3) + 1
		dims := make([]int, d)
		size := 1
		for i := range dims {
			dims[i] = n + 2 + rng.Intn(4)
			size *= dims[i]
		}
		c := rng.NormFloat64() * 100
		data := make([]float64, size)
		for i := range data {
			data[i] = c
		}
		p, err := New(dims, n)
		if err != nil {
			return false
		}
		// check an interior point
		coord := make([]int, d)
		idx := 0
		stride := 1
		for i := d - 1; i >= 0; i-- {
			coord[i] = n
			idx += n * stride
			stride *= dims[i]
		}
		pred := p.Predict(data, idx, coord)
		return math.Abs(pred-c) < 1e-9*math.Max(1, math.Abs(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{10}, 0); err == nil {
		t.Fatal("layers 0 should fail")
	}
	if _, err := New([]int{10}, MaxLayers+1); err == nil {
		t.Fatal("too many layers should fail")
	}
	if _, err := New(nil, 1); err == nil {
		t.Fatal("no dims should fail")
	}
	if _, err := New([]int{0}, 1); err == nil {
		t.Fatal("zero dim should fail")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{4, 0, 1}, {4, 1, 4}, {4, 2, 6}, {4, 3, 4}, {4, 4, 1},
		{8, 4, 70}, {5, 6, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Fatalf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestInteriorStencilIsCopy(t *testing.T) {
	p, _ := New([]int{10, 10}, 2)
	s := p.InteriorStencil()
	s[0].Coef = 999
	s[0].Offsets[0] = 999
	s2 := p.InteriorStencil()
	if s2[0].Coef == 999 || s2[0].Offsets[0] == 999 {
		t.Fatal("InteriorStencil leaks internal state")
	}
}

func BenchmarkPredictInterior2D(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4} {
		b.Run(map[int]string{1: "layer1", 2: "layer2", 3: "layer3", 4: "layer4"}[n], func(b *testing.B) {
			M, N := 256, 256
			rng := rand.New(rand.NewSource(1))
			data := make([]float64, M*N)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			p, _ := New([]int{M, N}, n)
			coord := []int{M / 2, N / 2}
			idx := coord[0]*N + coord[1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = p.Predict(data, idx, coord)
			}
		})
	}
}
