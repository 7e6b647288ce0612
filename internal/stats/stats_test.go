package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	med, err := Median(xs)
	if err != nil || med != 3 {
		t.Fatalf("median %g (%v)", med, err)
	}
	q, _ := Quantile(xs, 0)
	if q != 1 {
		t.Fatalf("q0 %g", q)
	}
	q, _ = Quantile(xs, 1)
	if q != 5 {
		t.Fatalf("q1 %g", q)
	}
	q, _ = Quantile(xs, 0.25) // pos=1 exactly -> 2
	if q != 2 {
		t.Fatalf("q0.25 %g", q)
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("empty quantile accepted")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("q>1 accepted")
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatal("wrong CDF length")
	}
	if pts[0].X != 1 || math.Abs(pts[0].P-1.0/3) > 1e-12 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[2].X != 3 || pts[2].P != 1 {
		t.Fatalf("last point %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(xs []float64) bool {
		pts := CDF(xs)
		if len(pts) != len(xs) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].X < pts[i-1].X || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].P == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64() * 10
	}
	centres, density, err := Histogram(xs, 0, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(centres) != 20 || len(density) != 20 {
		t.Fatal("wrong bin count")
	}
	width := 0.5
	var integral float64
	for _, d := range density {
		integral += d * width
	}
	if math.Abs(integral-1) > 1e-9 {
		t.Fatalf("PDF integral %g, want 1", integral)
	}
	// Uniform sample: density ~0.1 everywhere.
	for i, d := range density {
		if math.Abs(d-0.1) > 0.03 {
			t.Fatalf("bin %d density %g, want ~0.1", i, d)
		}
	}
}

func TestHistogramClampsOutliers(t *testing.T) {
	_, density, err := Histogram([]float64{-5, 15}, 0, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if density[0] == 0 || density[1] == 0 {
		t.Fatal("outliers not clamped into edge bins")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, _, err := Histogram(nil, 0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, _, err := Histogram(nil, 5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
}

func TestJainIndex(t *testing.T) {
	j, err := JainIndex([]float64{1, 1, 1, 1})
	if err != nil || math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal shares: %g (%v)", j, err)
	}
	j, _ = JainIndex([]float64{1, 0, 0, 0})
	if math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("monopoly: %g, want 0.25", j)
	}
	if _, err := JainIndex(nil); err == nil {
		t.Error("empty fairness accepted")
	}
	if _, err := JainIndex([]float64{-1, 1}); err == nil {
		t.Error("negative share accepted")
	}
	j, _ = JainIndex([]float64{0, 0})
	if j != 1 {
		t.Fatalf("all-zero shares: %g, want 1", j)
	}
}

func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = math.Abs(math.Mod(x, 1000))
		}
		j, err := JainIndex(xs)
		if err != nil {
			return false
		}
		n := float64(len(xs))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
