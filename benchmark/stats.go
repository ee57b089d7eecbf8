package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"
)

// spread summarizes repeated measurements of one metric.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spreadOf returns the median and quartiles of vs, the quartiles as Python's
// statistics.quantiles(vs, n=4) computes them (the driver's definition).
func spreadOf(vs []float64) spread {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return spread{}
	case 1:
		return spread{x[0], x[0], x[0], 1}
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return spread{Median: cut(2), Q1: cut(1), Q3: cut(3), N: n}
}

// percentile is the nearest-rank p-th percentile of sorted; 0 when empty.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// ratio is a/b, and 0 where b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func fnvHex(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}
