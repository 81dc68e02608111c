package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// exactQuantile is the reference: the value at rank ceil(q*n) of the sorted
// sample.
func exactQuantile(sorted []int64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func TestHistQuantilesAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Log-uniform between 200 ns and 20 ms with a heavy tail, the shape of
	// a transaction latency sample; split over two histograms and merged,
	// as the run does with its clients.
	var parts [2]hist
	var all []int64
	for i := 0; i < 200000; i++ {
		v := int64(200 * math.Exp(rng.Float64()*math.Log(1e5)))
		if rng.Intn(100) == 0 {
			v *= 20
		}
		parts[i%2].record(v)
		all = append(all, v)
	}
	var h hist
	h.merge(&parts[0])
	h.merge(&parts[1])
	slices.Sort(all)
	if h.n != uint64(len(all)) || h.max != uint64(all[len(all)-1]) {
		t.Fatalf("merged n=%d max=%d, want %d %d", h.n, h.max, len(all), all[len(all)-1])
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999} {
		got, want := h.quantile(q), exactQuantile(all, q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.4f: histogram %.1f, exact %.1f: off by %.2f%%, want <= 1%%", q, got, want, 100*rel)
		}
	}
}

func TestHistBucketsTileTheRange(t *testing.T) {
	// Every bucket starts where the previous one ends, and a value maps to
	// the bucket whose bounds hold it.
	next := uint64(0)
	for i := 0; i < histBuckets; i++ {
		lo, width := histBounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, next)
		}
		if i >= histSub && float64(width)/float64(lo) > 1.0/histSub {
			t.Fatalf("bucket %d is %d wide at %d: wider than 1/%d", i, width, lo, histSub)
		}
		for _, v := range []uint64{lo, lo + width - 1} {
			if got := histIndex(v); got != i {
				t.Fatalf("value %d maps to bucket %d, want %d", v, got, i)
			}
		}
		next = lo + width
	}
	if next != 1<<histMaxBits {
		t.Fatalf("buckets end at %d, want 2^%d", next, histMaxBits)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of three = %v, %v; Python gives 1, 4", q1, q3)
	}
}
