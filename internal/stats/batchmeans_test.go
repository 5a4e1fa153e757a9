package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestTQuantileKnownValues(t *testing.T) {
	// Reference values from standard t tables (two-sided, alpha = 0.05).
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706},
		{2, 4.303},
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{100, 1.984},
	}
	for _, c := range cases {
		got := TQuantile(c.df, 0.05)
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("TQuantile(%d, 0.05) = %v, want %v", c.df, got, c.want)
		}
	}
}

func TestTQuantileLargeDFApproachesNormal(t *testing.T) {
	got := TQuantile(10000, 0.05)
	if math.Abs(got-1.96) > 0.01 {
		t.Errorf("TQuantile(10000, 0.05) = %v, want approx 1.96", got)
	}
}

func TestTQuantileEdgeCases(t *testing.T) {
	if !math.IsNaN(TQuantile(0, 0.05)) {
		t.Error("df=0 should return NaN")
	}
	if !math.IsInf(TQuantile(5, 0), 1) {
		t.Error("alpha=0 should return +Inf")
	}
	if TQuantile(5, 1) != 0 {
		t.Error("alpha=1 should return 0")
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, x := range []float64{0.5, 1, 2, 5} {
		for _, df := range []int{1, 3, 10, 50} {
			lo := tCDF(-x, df)
			hi := tCDF(x, df)
			if math.Abs(lo+hi-1) > 1e-9 {
				t.Errorf("tCDF symmetry broken at x=%v df=%d: %v + %v != 1", x, df, lo, hi)
			}
		}
	}
	if math.Abs(tCDF(0, 7)-0.5) > 1e-12 {
		t.Error("tCDF(0) should be 0.5")
	}
}

func TestBatchMeansMean(t *testing.T) {
	bm := NewBatchMeans()
	for i := 0; i < 10; i++ {
		bm.AddBatchMean(float64(i))
	}
	if bm.NumBatches() != 10 {
		t.Fatalf("batches = %d, want 10", bm.NumBatches())
	}
	if !almostEqual(bm.Mean(), 4.5, 1e-12) {
		t.Errorf("mean = %v, want 4.5", bm.Mean())
	}
}

func TestBatchMeansConfidenceIntervalCoversTrueMean(t *testing.T) {
	// For i.i.d. batch means the 95% CI should contain the true mean in
	// roughly 95% of replications; check a comfortable majority to keep the
	// test deterministic and fast.
	rng := rand.New(rand.NewSource(42))
	const (
		replications = 200
		trueMean     = 3.0
	)
	covered := 0
	for r := 0; r < replications; r++ {
		bm := NewBatchMeans()
		for i := 0; i < 40; i++ {
			var sum float64
			for j := 0; j < 50; j++ {
				sum += rng.ExpFloat64() * trueMean
			}
			bm.AddBatchMean(sum / 50)
		}
		iv := bm.ConfidenceInterval(0.95)
		if iv.Contains(trueMean) {
			covered++
		}
	}
	if covered < int(0.85*replications) {
		t.Errorf("95%% CI covered true mean only %d/%d times", covered, replications)
	}
}

func TestBatchMeansFewBatches(t *testing.T) {
	bm := NewBatchMeans()
	bm.AddBatchMean(1)
	iv := bm.ConfidenceInterval(0.95)
	if !math.IsInf(iv.HalfWidth, 1) {
		t.Errorf("expected infinite half-width with < 2 batches, got %v", iv.HalfWidth)
	}
}

func TestBatchMeansAddBatchMean(t *testing.T) {
	bm := NewBatchMeans()
	bm.AddBatchMean(1)
	bm.AddBatchMean(3)
	bm.AddBatchMean(5)
	if bm.NumBatches() != 3 {
		t.Fatalf("batches = %d, want 3", bm.NumBatches())
	}
	if !almostEqual(bm.Mean(), 3, 1e-12) {
		t.Errorf("mean = %v, want 3", bm.Mean())
	}
	iv := bm.ConfidenceInterval(0.95)
	if iv.HalfWidth <= 0 || math.IsInf(iv.HalfWidth, 1) {
		t.Errorf("half-width = %v, want finite positive", iv.HalfWidth)
	}
}

func TestIntervalBoundsAndString(t *testing.T) {
	iv := Interval{Mean: 10, HalfWidth: 2, Level: 0.95, Batches: 5}
	if iv.Lower() != 8 || iv.Upper() != 12 {
		t.Errorf("bounds = [%v, %v], want [8, 12]", iv.Lower(), iv.Upper())
	}
	if !iv.Contains(9) || iv.Contains(13) {
		t.Error("Contains misbehaves")
	}
	if iv.String() == "" {
		t.Error("String should not be empty")
	}
}
