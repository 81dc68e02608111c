package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram in nanoseconds: values below
// histSub are exact, every octave above is cut into histSub equal buckets,
// so a bucket is never wider than 1/histSub (0.8 %) of its lower edge.
// obs.Histogram has 4 sub-buckets per octave (25 % steps) and is too coarse
// for a percentile that gates a 5 % regression bound.
//
// A hist is owned by one goroutine while it records; merge happens after the
// recorders have stopped.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits // sub-buckets per octave
	histMaxBits = 40               // values clamp at 2^40 ns ≈ 18 min
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - 1 // position of the top bit, >= histSubBits
	return (e-histSubBits+1)*histSub + int(v>>(e-histSubBits))&(histSub-1)
}

// histBounds returns the lower edge and the width of bucket i.
func histBounds(i int) (lo, width uint64) {
	if i < histSub {
		return uint64(i), 1
	}
	shift := uint(i/histSub - 1)
	return uint64(histSub+i%histSub) << shift, 1 << shift
}

func (h *hist) record(ns int64) {
	v := uint64(0)
	if ns > 0 {
		v = uint64(ns)
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated linearly
// inside the bucket that holds it, so two runs whose latencies differ by
// less than a bucket still report different values. 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			v := float64(lo) + float64(width)*(rank-cum)/float64(c)
			return math.Min(v, float64(h.max))
		}
		cum += float64(c)
	}
	return float64(h.max)
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
