package repro

import (
	"math"
	"testing"

	"repro/internal/parafac2"
)

// TestDPar2FitnessMatchesRecordedBaseline pins the end-to-end numerics of
// the exact BenchmarkDPar2 workload against the fitness recorded in
// BENCH_1.json. Kernel re-blocking is allowed to perturb accumulation order
// only inside lapack (serial per problem, so still thread-count
// independent); the resulting fitness drift must stay within 1e-9 of the
// recorded value. Measured drift after the register-tiled kernels and the
// batched Jacobi sweep landed: ~3e-14 (−3.4e-14). The warm-started Q update
// (each iteration factors M_k·P_k instead of M_k) is not bit-identical to
// the cold one: it moves the fitness by +1.8e-14, to a drift of −1.6e-14.
func TestDPar2FitnessMatchesRecordedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark workload")
	}
	ten := benchTensor(1)
	cfg := benchConfig(10)
	cfg.Tol = 0
	res, err := parafac2.DPar2(ten, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const recorded = 0.955924327928656 // BENCH_1.json this_pr fitness
	if d := math.Abs(res.Fitness - recorded); d > 1e-9 {
		t.Fatalf("fitness %.15f drifted %.3g from recorded baseline %.15f (budget 1e-9)",
			res.Fitness, d, recorded)
	}
}
