package main

import (
	"bytes"
	"fmt"
	"math"

	"repro"
	"repro/internal/dataio"
)

// specFor is the Spec of a workload: DPar2 defaults with the workload's
// rank and iteration budget, Tol 0 (every op runs the full budget) and the
// run's seed.
func specFor(rank, iters int, seed uint64) repro.Spec {
	s := repro.DefaultSpec()
	s.Rank, s.MaxIters, s.Tol, s.Seed = rank, iters, 0, seed
	return s
}

// finiteFactors reports the first non-finite entry of a result's factors.
func finiteFactors(res *repro.Result) error {
	ms := []*repro.Matrix{res.H, res.V}
	if a, z, p, ok := res.FactoredQ(); ok {
		ms = append(append(append(ms, a...), z...), p...)
	} else {
		for k := 0; k < res.K(); k++ {
			ms = append(ms, res.Qk(k))
		}
	}
	vecs := append([][]float64(nil), res.S...)
	for _, m := range ms {
		vecs = append(vecs, m.Data)
	}
	for _, v := range vecs {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("non-finite factor entry %v", x)
			}
		}
	}
	return nil
}

// checkResult is the check every decomposition passes: finite factors and a
// fitness at or above the workload's floor.
func checkResult(res *repro.Result, floor float64) error {
	if err := finiteFactors(res); err != nil {
		return err
	}
	if !(res.Fitness >= floor) {
		return fmt.Errorf("fitness %.6f below the floor %.4f", res.Fitness, floor)
	}
	return nil
}

// sameBits checks that a repeated computation reproduced a value exactly.
func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s %v differs from the reference %v", what, got, want)
	}
	return nil
}

// resultBytes is a result's DPF2 encoding.
func resultBytes(res *repro.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sameResult checks that res encodes to exactly the reference bytes and
// carries the reference fitness.
func sameResult(res *repro.Result, ref *repro.Result, refRaw []byte) error {
	raw, err := resultBytes(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, refRaw) {
		return fmt.Errorf("result bytes differ from the reference")
	}
	return sameBits("fitness", res.Fitness, ref.Fitness)
}
