package main

import (
	"math"

	"repro"
	"repro/internal/datagen"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// The workloads' slice heights sit at fixed quantiles of their distribution,
// in seeded order, instead of being drawn at random: every seed then gives a
// tensor of the same shape, so runs on different seeds do the same amount
// of work and their timings compare. The seed still draws all the values.

// longTailRows are k slice heights at the quantiles (i+½)/k of the
// long-tailed listing-period distribution of datagen.LongTailRows (Fig. 8):
// lo + (hi−lo)·u⁵.
func longTailRows(g *rng.RNG, k, lo, hi int) []int {
	rows := make([]int, k)
	for i, p := range g.Perm(k) {
		u := (float64(p) + 0.5) / float64(k)
		rows[i] = lo + int(float64(hi-lo)*math.Pow(u, 5))
	}
	return rows
}

// uniformRows are k slice heights at the quantiles (i+½)/k of the uniform
// distribution on [lo, hi].
func uniformRows(g *rng.RNG, k, lo, hi int) []int {
	rows := make([]int, k)
	for i, p := range g.Perm(k) {
		rows[i] = lo + int(float64(hi-lo+1)*(float64(p)+0.5)/float64(k))
	}
	return rows
}

// stockTensor is datagen.StockTensor (US market) with its listing periods
// from longTailRows: K stocks sharing market and sector factor paths over
// the longest horizon, each stock's days×88 feature matrix one slice.
func stockTensor(g *rng.RNG, k, minDays, maxDays int) *repro.Irregular {
	m := datagen.DefaultUSMarket()
	rows := longTailRows(g, k, minDays, maxDays)
	horizon := 0
	for _, r := range rows {
		horizon = max(horizon, r)
	}
	path := func(scale float64) []float64 {
		p := make([]float64, horizon)
		for t := range p {
			p[t] = scale * math.Sqrt(1.0/252) * g.Norm()
		}
		return p
	}
	market := path(0.10)
	sectors := make([][]float64, m.Sectors)
	for i := range sectors {
		sectors[i] = path(0.45)
	}
	slices := make([]*repro.Matrix, k)
	for i, days := range rows {
		sec := g.Intn(m.Sectors)
		st := datagen.SimulateStock(g, days, m, market[horizon-days:], sectors[sec][horizon-days:], sec)
		slices[i] = datagen.FeatureMatrix(st)
	}
	return tensor.MustIrregular(slices)
}
