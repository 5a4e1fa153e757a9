package stats

import "fmt"

// BatchMeans implements the batch-means method for steady-state simulation
// output analysis: the run is partitioned into batches, the batch averages
// are treated as (approximately) independent samples, and a Student-t
// confidence interval is computed over them. The paper's simulator reports
// 95% confidence intervals computed this way.
type BatchMeans struct {
	batches []float64
}

// NewBatchMeans returns an estimator with no batches.
func NewBatchMeans() *BatchMeans { return &BatchMeans{} }

// AddBatchMean records one batch mean. The simulator partitions its run into
// fixed-length time batches and computes time-weighted averages per batch.
func (b *BatchMeans) AddBatchMean(mean float64) {
	b.batches = append(b.batches, mean)
}

// NumBatches returns the number of completed batches.
func (b *BatchMeans) NumBatches() int { return len(b.batches) }

// Mean returns the grand mean over all completed batches.
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return 0
	}
	var sum float64
	for _, v := range b.batches {
		sum += v
	}
	return sum / float64(len(b.batches))
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean      float64
	HalfWidth float64
	Level     float64
	Batches   int
}

// Lower returns the lower bound of the interval.
func (iv Interval) Lower() float64 { return iv.Mean - iv.HalfWidth }

// Upper returns the upper bound of the interval.
func (iv Interval) Upper() float64 { return iv.Mean + iv.HalfWidth }

// Contains reports whether x lies inside the interval.
func (iv Interval) Contains(x float64) bool {
	return x >= iv.Lower() && x <= iv.Upper()
}

// String formats the interval as "mean ± halfwidth".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g", iv.Mean, iv.HalfWidth)
}

// ConfidenceInterval returns the confidence interval over the completed batch
// means at the given confidence level (e.g. 0.95). With fewer than two
// batches the half-width is reported as +Inf.
func (b *BatchMeans) ConfidenceInterval(level float64) Interval {
	iv := MeanInterval(b.batches, level)
	iv.Mean = b.Mean()
	return iv
}
