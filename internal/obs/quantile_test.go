package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func quantileHistogram(t *testing.T, buckets []float64) *Histogram {
	t.Helper()
	r := NewRegistry()
	return r.Histogram("quantile_test_seconds", "quantile estimator fixture", Labels{"case": t.Name()}, buckets)
}

func TestQuantileEmpty(t *testing.T) {
	h := quantileHistogram(t, []float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Snapshot().Quantile(q); !math.IsNaN(v) {
			t.Errorf("Quantile(%g) on empty histogram = %g, want NaN", q, v)
		}
	}
}

func TestQuantileRejectsOutOfRangeQ(t *testing.T) {
	h := quantileHistogram(t, []float64{1, 2})
	h.Observe(0.5)
	for _, q := range []float64{-0.1, 1.1, math.Inf(1)} {
		if v := h.Snapshot().Quantile(q); !math.IsNaN(v) {
			t.Errorf("Quantile(%g) = %g, want NaN", q, v)
		}
	}
}

// With every observation landing exactly on a bucket boundary, the
// estimator must report boundaries, not values past them.
func TestQuantileExactBucketBoundaries(t *testing.T) {
	h := quantileHistogram(t, []float64{1, 2, 3, 4})
	// 25 observations in each of the four buckets, each at its upper
	// bound: the distribution's quartiles are exactly the bounds.
	for _, b := range []float64{1, 2, 3, 4} {
		for i := 0; i < 25; i++ {
			h.Observe(b)
		}
	}
	cases := []struct{ q, want float64 }{
		{0.25, 1}, {0.5, 2}, {0.75, 3}, {1, 4},
	}
	for _, tc := range cases {
		if got := h.Snapshot().Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// q=0 interpolates to the owning bucket's lower edge (zero for
	// the first bucket — latencies are non-negative).
	if got := h.Snapshot().Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %g, want 0", got)
	}
}

// Observations beyond the last finite bound land in the +Inf bucket;
// quantiles whose rank falls there must clamp to the largest finite
// bound instead of inventing a value.
func TestQuantileInfBucketSpill(t *testing.T) {
	h := quantileHistogram(t, []float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // first bucket
	}
	for i := 0; i < 90; i++ {
		h.Observe(50) // +Inf bucket
	}
	if got := h.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("Quantile(0.99) with +Inf spill = %g, want largest finite bound 2", got)
	}
	if got := h.Snapshot().Quantile(0.05); got <= 0 || got > 1 {
		t.Errorf("Quantile(0.05) = %g, want inside the first bucket (0, 1]", got)
	}
}

// Cross-check against a sorted-sample oracle: the interpolated
// estimate must land inside the same bucket as the true sample
// quantile for a spread of distributions and quantiles.
func TestQuantileAgainstSortedSampleOracle(t *testing.T) {
	bounds := DefBuckets
	distributions := map[string]func(r *rand.Rand) float64{
		"uniform":    func(r *rand.Rand) float64 { return r.Float64() * 10 },
		"loguniform": func(r *rand.Rand) float64 { return 0.0002 * math.Pow(10, r.Float64()*5) },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 0.001 + r.Float64()*0.001
			}
			return 1 + r.Float64()
		},
	}
	for name, draw := range distributions {
		t.Run(name, func(t *testing.T) {
			h := quantileHistogram(t, bounds)
			r := rand.New(rand.NewSource(7))
			samples := make([]float64, 5000)
			for i := range samples {
				samples[i] = draw(r)
				h.Observe(samples[i])
			}
			sort.Float64s(samples)
			for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
				oracle := samples[int(math.Ceil(q*float64(len(samples))))-1]
				est := h.Snapshot().Quantile(q)
				lo, hi := 0.0, math.Inf(1)
				for i, b := range bounds {
					if oracle <= b {
						if i > 0 {
							lo = bounds[i-1]
						}
						hi = b
						break
					}
				}
				if est < lo-1e-12 || est > hi+1e-12 {
					t.Errorf("q=%g: estimate %g outside oracle bucket (%g, %g], oracle %g",
						q, est, lo, hi, oracle)
				}
			}
		})
	}
}

// A delta snapshot must report the quantiles of only the bracketed
// region, unpolluted by what the histogram accumulated before.
func TestQuantileSnapshotDelta(t *testing.T) {
	h := quantileHistogram(t, []float64{1, 2, 4, 8})
	for i := 0; i < 1000; i++ {
		h.Observe(0.5) // pre-existing load in the first bucket
	}
	before := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(3) // the measured region lands in (2, 4]
	}
	delta := h.Snapshot().Sub(before)
	if got := delta.Count(); got != 100 {
		t.Fatalf("delta count = %d, want 100", got)
	}
	if got := delta.Quantile(0.5); got <= 2 || got > 4 {
		t.Errorf("delta Quantile(0.5) = %g, want inside (2, 4]", got)
	}
	if got := math.Abs(delta.Sum - 300); got > 1e-6 {
		t.Errorf("delta Sum = %g, want 300", delta.Sum)
	}
	// The full histogram's median is still dominated by the old load.
	if got := h.Snapshot().Quantile(0.5); got > 1 {
		t.Errorf("cumulative Quantile(0.5) = %g, want <= 1", got)
	}
}
