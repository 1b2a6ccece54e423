package service

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"repro"
)

// BenchmarkServiceDecomposeRoundTrip measures the transport tax: the same
// decomposition through a loopback HTTP server versus directly on the
// Engine. The headline metrics are http-ms (full round trip: JSON request,
// admission queue, decomposition, DPF2+base64 response) and overhead-ms
// (round trip minus the in-process time — serialization + HTTP + queue
// only), which scripts/benchsmoke.sh holds under its latency budget.
func BenchmarkServiceDecomposeRoundTrip(b *testing.B) {
	ts := newTestServer(b, Config{}, repro.WithEngineThreads(2))
	ctx := context.Background()
	g := repro.NewRNG(5)
	ten := repro.LowRankTensor(g, []int{60, 70, 50, 65}, 40, 6, 0.02)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		b.Fatal(err)
	}
	rank, seed, iters, tol := 6, uint64(9), 8, 0.0
	req := DecomposeRequest{
		TensorID: info.TensorID,
		Spec:     SpecRequest{Rank: &rank, Seed: &seed, MaxIters: &iters, Tol: &tol},
	}
	opts := []repro.Option{
		repro.WithRank(rank), repro.WithSeed(seed), repro.WithMaxIters(iters), repro.WithTolerance(tol),
	}

	// Warm both paths once (pool arenas, HTTP connection) outside the timer.
	if _, err := ts.eng.Decompose(ctx, ten, opts...); err != nil {
		b.Fatal(err)
	}
	if _, _, err := ts.client.Decompose(ctx, req); err != nil {
		b.Fatal(err)
	}

	var direct, http time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := ts.eng.Decompose(ctx, ten, opts...); err != nil {
			b.Fatal(err)
		}
		direct += time.Since(start)

		start = time.Now()
		if _, _, err := ts.client.Decompose(ctx, req); err != nil {
			b.Fatal(err)
		}
		http += time.Since(start)
	}
	b.StopTimer()
	n := float64(b.N)
	directMS := direct.Seconds() * 1e3 / n
	httpMS := http.Seconds() * 1e3 / n
	b.ReportMetric(directMS, "direct-ms")
	b.ReportMetric(httpMS, "http-ms")
	b.ReportMetric(httpMS-directMS, "overhead-ms")
}

// BenchmarkServiceCacheHit measures one loopback HTTP cache hit on a
// stock-sized result (K=120 slices of 100–2000 rows with the stock
// benchmark's long-tailed heights, rank 10: ≈4.2 MB of DPF2) in both reply
// forms. binary-ms is Client.Decompose, which asks for the binary form;
// json-ms is a client that sends no Accept header and decodes the JSON
// reply's base64 result_dpf2. Both include the client's DPF2 decode;
// dpf2-bytes is the result's size. Every iteration checks that the two forms
// carried the same bytes. Timings depend
// on the host, so scripts/benchsmoke.sh checks only that the metrics parse.
func BenchmarkServiceCacheHit(b *testing.B) {
	ts := newTestServer(b, Config{}, repro.WithEngineThreads(2),
		repro.WithStateDir(b.TempDir()), repro.WithResultCache(1<<28))
	ctx := context.Background()
	const k = 120
	rows := make([]int, k)
	for i := range rows {
		u := (float64(i) + 0.5) / k
		rows[i] = 100 + int(1900*u*u*u*u*u)
	}
	ten := repro.LowRankTensor(repro.NewRNG(7), rows, 16, 10, 0.02)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		b.Fatal(err)
	}
	req := DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(10), MaxIters: intp(3)}}
	if _, _, err := ts.client.Decompose(ctx, req); err != nil { // the one miss
		b.Fatal(err)
	}
	hits0, _ := ts.eng.CacheCounters()

	var binary, viaJSON time.Duration
	var size int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		_, bin, err := ts.client.Decompose(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		binary += time.Since(start)

		start = time.Now()
		var js DecomposeResponse
		if err := ts.client.do(ctx, http.MethodPost, "/v1/decompose", req, &js); err != nil {
			b.Fatal(err)
		}
		if _, err := decodeResult(js.ResultDPF2, js.Meta); err != nil {
			b.Fatal(err)
		}
		viaJSON += time.Since(start)

		if !bytes.Equal(bin.ResultDPF2, js.ResultDPF2) {
			b.Fatal("binary and JSON replies carry different DPF2 bytes")
		}
		size = len(bin.ResultDPF2)
	}
	b.StopTimer()
	if hits, _ := ts.eng.CacheCounters(); hits-hits0 != uint64(2*b.N) {
		b.Fatalf("%d cache hits for %d requests", hits-hits0, 2*b.N)
	}
	n := float64(b.N)
	b.ReportMetric(binary.Seconds()*1e3/n, "binary-ms")
	b.ReportMetric(viaJSON.Seconds()*1e3/n, "json-ms")
	b.ReportMetric(float64(size), "dpf2-bytes")
}
