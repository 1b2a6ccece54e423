package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro"
	"repro/internal/dataio"
	"repro/internal/lapack"
	"repro/internal/mat"
	"repro/internal/rng"
	"repro/internal/rsvd"
	"repro/internal/scheduler"
	"repro/internal/service"
)

// layerReps is how many times the traced run repeats each layer call; the
// per-layer metric is the median span.
const layerReps = 5

// waitHook is the EngineMetrics hook of a traced run: it keeps every job's
// admission queue wait and the deepest queue seen.
type waitHook struct {
	mu       sync.Mutex
	waits    []float64
	maxDepth int
}

func (h *waitHook) JobAdmitted(_ string, _, depth int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.maxDepth = max(h.maxDepth, depth)
}

func (h *waitHook) JobStarted(_ string, _, _ int, wait time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.waits = append(h.waits, ms(wait))
}

func (h *waitHook) JobRejected(string, error)                     {}
func (h *waitHook) JobFinished(string, int, time.Duration, error) {}
func (h *waitHook) JobCancelled(string, int, time.Duration)       {}

// layerInputs are a workload's own inputs and Spec, and the cached Engine
// the in-process layer calls run on.
type layerInputs struct {
	ten    *repro.Irregular
	batch  []*repro.Matrix
	spec   repro.Spec
	floor  float64
	eng    *repro.Engine
	dir    string                // eng's state dir
	stream *repro.StreamingDPar2 // over ten on eng
	ref    *repro.Result         // eng's result for spec, already cached
	refRaw []byte
	comp   *repro.Compressed // ten compressed under spec, by a traced op
	seed   uint64            // next Spec seed that is in no cache
}

// freshSpec is the workload's Spec with a seed no earlier request used, so
// the Engine computes (and caches) it.
func (li *layerInputs) freshSpec() repro.Spec {
	s := li.spec
	s.Seed = li.seed
	li.seed++
	return s
}

// split is one traced op's counts.
type split struct {
	compressedBytes float64
	allocsPerIter   float64
	poolDraws       float64
}

// tracedSplit runs the op of Engine.Decompose as its three public steps —
// Engine.Compress, Engine.DecomposeCompressed, Engine.Fitness — each in a
// span under one op span, and returns the compressed tensor. The split
// computes the same fitness bits as Decompose, which the check enforces.
func tracedSplit(tr *tracer, eng *repro.Engine, li *layerInputs) (split, *repro.Compressed, error) {
	ctx := context.Background()
	op := tr.newOp()
	root := tr.begin("op", 0, op)
	draws := lapack.PoolDraws()
	var comp *repro.Compressed
	var err error
	tr.do("parafac2.compress", root, op, func() { comp, err = eng.Compress(ctx, li.ten, repro.WithSpec(li.spec)) })
	if err != nil {
		tr.end(root)
		return split{}, nil, err
	}
	var res *repro.Result
	m0 := mallocs()
	tr.do("parafac2.iterate", root, op, func() { res, err = eng.DecomposeCompressed(ctx, comp, repro.WithSpec(li.spec)) })
	m1 := mallocs()
	if err != nil {
		tr.end(root)
		return split{}, comp, err
	}
	tr.do("parafac2.fitness", root, op, func() { res.Fitness = eng.Fitness(li.ten, res) })
	tr.end(root)
	s := split{
		compressedBytes: float64(comp.SizeBytes()),
		allocsPerIter:   float64(m1-m0) / float64(res.Iters),
		poolDraws:       float64(lapack.PoolDraws() - draws),
	}
	if err := checkResult(res, li.floor); err == nil {
		err = sameBits("split fitness", res.Fitness, li.ref.Fitness)
	}
	return s, comp, err
}

// medianSplit takes each count's median over the traced ops.
func medianSplit(ss []split) split {
	var b, a, d []float64
	for _, s := range ss {
		b, a, d = append(b, s.compressedBytes), append(a, s.allocsPerIter), append(d, s.poolDraws)
	}
	return split{median(b), median(a), median(d)}
}

// layerCounts are the per-layer values that are counts, not spans.
type layerCounts struct {
	split
	sketchFlops, sketchBytes float64
	imbalance                float64
	resultBytes              float64
	checkpointBytes          float64
}

// measureLayers times calls into the kernel, randomized-SVD, scheduler,
// codec, Engine and state layers on the workload's inputs, layerReps times
// each, as spans.
func measureLayers(tr *tracer, li *layerInputs, rep *report) layerCounts {
	var c layerCounts
	c.sketchFlops, c.sketchBytes, c.imbalance = kernelLayers(tr, li, li.eng.Pool())
	c.resultBytes = codecLayers(tr, li, rep)

	ctx := context.Background()
	var first *repro.Result
	for i := 0; i < layerReps; i++ {
		op := tr.newOp()
		var res *repro.Result
		var err error
		tr.do("engine.cache_hit", 0, op, func() { res, err = li.eng.Decompose(ctx, li.ten, repro.WithSpec(li.spec)) })
		if err == nil {
			err = sameResult(res, li.ref, li.refRaw)
		}
		rep.op("in-process cache hit", err)

		op = tr.newOp()
		tr.do("engine.direct", 0, op, func() { res, err = li.eng.Decompose(ctx, li.ten, repro.WithSpec(li.freshSpec())) })
		if err == nil {
			err = checkResult(res, li.floor)
		}
		rep.op("in-process miss", err)

		op = tr.newOp()
		root := tr.begin("absorb", 0, op)
		fork, _, err := absorbFork(li.eng, li.stream, li.batch, tr, root, op)
		tr.end(root)
		if err == nil {
			err = checkAbsorb(fork, li.stream.K()+len(li.batch), &first)
		}
		rep.op("in-process absorb", err)
	}
	if fi, err := os.Stat(filepath.Join(li.dir, absorbCheckpoint)); err == nil {
		c.checkpointBytes = float64(fi.Size())
	}
	return c
}

// kernelLayers times stage 1 serially (rsvd.Decompose per slice, with the
// generators Compress draws), stage 2 (rsvd.Decompose of the J×KR matrix on
// the pool), the stage-1 sketch product X_k·Ω (mat MulInto), QR of each
// sketch, and one FactorBatch over the K R×R problems of a Q_k update. It
// returns the sketch's
// computed flops and bytes and the Algorithm 4 partition's imbalance.
func kernelLayers(tr *tracer, li *layerInputs, pool *repro.Pool) (flops, bytes, imbalance float64) {
	r := li.spec.Rank
	opts := rsvd.Options{Oversample: li.spec.Oversample, PowerIters: li.spec.PowerIters}
	w := opts.SketchWidth(r)
	slices := li.ten.Slices
	g := rng.New(li.spec.Seed)
	gens := make([]*rng.RNG, len(slices))
	for k := range gens {
		gens[k] = g.Split()
	}

	var cb []*mat.Dense
	for i := 0; i < layerReps; i++ {
		fresh := make([]*rng.RNG, len(gens))
		for k := range gens {
			fresh[k] = gens[k].Clone()
		}
		o := opts
		o.Workspace = new(lapack.Workspace)
		cb = cb[:0]
		tr.do("rsvd.stage1_serial", 0, tr.newOp(), func() {
			for k, s := range slices {
				d := rsvd.Decompose(fresh[k], s, r, o)
				cb = append(cb, d.V.ScaleColumns(d.S))
			}
		})
	}
	m := mat.HConcat(cb...)
	o2 := opts
	o2.Runner = pool
	for i := 0; i < layerReps; i++ {
		g2 := g.Clone()
		tr.do("rsvd.stage2", 0, tr.newOp(), func() { rsvd.Decompose(g2, m, r, o2) })
	}

	omega := mat.Gaussian(g.Clone(), li.ten.J, w)
	sketches := make([]*mat.Dense, len(slices))
	rows := make([]int, len(slices))
	for k, s := range slices {
		sketches[k] = mat.New(s.Rows, w)
		rows[k] = s.Rows
		flops += 2 * float64(s.Rows*s.Cols*w)
		bytes += 8 * float64(s.Rows*s.Cols+s.Cols*w+s.Rows*w)
	}
	for i := 0; i < layerReps; i++ {
		tr.do("mat.sketch", 0, tr.newOp(), func() {
			for k, s := range slices {
				s.MulInto(sketches[k], omega, nil)
			}
		})
	}
	for i := 0; i < layerReps; i++ {
		tr.do("lapack.qr", 0, tr.newOp(), func() {
			for _, y := range sketches {
				if y.Rows >= y.Cols {
					lapack.QRFactor(y)
				}
			}
		})
	}

	// The inputs are F⁽ᵏ⁾E·DᵀV·S_k·Hᵀ, built as the ALS iteration builds
	// them, from the traced op's compressed tensor and the reference
	// result's V, S_k and H: the problems of a converged iteration.
	k := len(slices)
	comp, ref := li.comp, li.ref
	dtv := mat.New(r, r)
	comp.D.TMulInto(dtv, ref.V, nil)
	as, us, vs := make([]*mat.Dense, k), make([]*mat.Dense, k), make([]*mat.Dense, k)
	ss := make([][]float64, k)
	for p := range as {
		t1, t2 := mat.New(r, r), mat.New(r, r)
		comp.F[p].ScaleColumnsInto(t1, comp.E)
		t1.MulInto(t2, dtv, nil)
		t2.ScaleColumnsInto(t2, ref.S[p])
		as[p] = mat.New(r, r)
		t2.MulTInto(as[p], ref.H, nil)
		us[p], vs[p], ss[p] = mat.New(r, r), mat.New(r, r), make([]float64, r)
	}
	ws := new(lapack.BatchWorkspace)
	for i := 0; i < layerReps; i++ {
		tr.do("lapack.factorbatch", 0, tr.newOp(), func() { lapack.FactorBatch(as, us, ss, vs, pool, ws) })
	}
	return flops, bytes, scheduler.Imbalance(rows, scheduler.Partition(rows, 2))
}

// codecLayers times the DPT2 tensor decode and the DPF2 result encode and
// decode of the workload's tensor and result, and returns the result's size.
func codecLayers(tr *tracer, li *layerInputs, rep *report) float64 {
	var tb bytes.Buffer
	rep.op("tensor encode", dataio.WriteTensor(&tb, li.ten))
	var err error
	for i := 0; i < layerReps; i++ {
		tr.do("dataio.tensor_decode", 0, tr.newOp(), func() { _, err = dataio.ReadTensor(bytes.NewReader(tb.Bytes())) })
		rep.op("tensor decode", err)
	}
	var rb bytes.Buffer
	for i := 0; i < layerReps; i++ {
		rb.Reset()
		tr.do("dataio.result_encode", 0, tr.newOp(), func() { err = dataio.WriteResult(&rb, li.ref) })
		if err == nil && !bytes.Equal(rb.Bytes(), li.refRaw) {
			err = fmt.Errorf("result encoding is not deterministic")
		}
		rep.op("result encode", err)
	}
	for i := 0; i < layerReps; i++ {
		var res *repro.Result
		tr.do("dataio.result_decode", 0, tr.newOp(), func() { res, err = dataio.ReadResult(bytes.NewReader(li.refRaw)) })
		if err == nil {
			err = finiteFactors(res)
		}
		rep.op("result decode", err)
	}
	return float64(len(li.refRaw))
}

// roundTrips times sequential HTTP requests of each class on the workload's
// inputs — the traffic of a single closed-loop caller — as http.* spans.
// id is the workload tensor's ID on srv.
func roundTrips(tr *tracer, srv *httpServer, id string, li *layerInputs, rep *report) error {
	ctx := context.Background()
	spec := li.spec
	st, err := srv.client.CreateStream(ctx, service.StreamCreateRequest{TensorID: id, Spec: service.SpecRequest{Full: &spec}})
	if err != nil {
		return fmt.Errorf("create stream: %w", err)
	}
	batch, err := repro.NewIrregular(li.batch)
	if err != nil {
		return err
	}
	k := st.K
	for i := 0; i < layerReps; i++ {
		op := tr.newOp()
		var resp service.DecomposeResponse
		var res *repro.Result
		tr.do("http.hit", 0, op, func() {
			res, resp, err = srv.client.Decompose(ctx, service.DecomposeRequest{TensorID: id, Spec: service.SpecRequest{Full: &spec}})
		})
		if err == nil {
			err = sameWire(res, resp.ResultDPF2, li.ref, li.refRaw)
		}
		rep.op("http hit", err)

		op = tr.newOp()
		fresh := li.freshSpec()
		tr.do("http.miss", 0, op, func() {
			res, _, err = srv.client.Decompose(ctx, service.DecomposeRequest{TensorID: id, Spec: service.SpecRequest{Full: &fresh}})
		})
		if err == nil {
			err = checkResult(res, li.floor)
		}
		rep.op("http miss", err)

		op = tr.newOp()
		var si service.StreamInfo
		tr.do("http.absorb", 0, op, func() { si, err = srv.client.Absorb(ctx, st.StreamID, batch) })
		if err == nil && si.K != k+len(li.batch) {
			err = fmt.Errorf("absorb left K=%d, want %d", si.K, k+len(li.batch))
		}
		k = si.K
		rep.op("http absorb", err)
	}
	return nil
}

// sameWire checks a decompose reply against the in-process reference: the
// same DPF2 bytes, the same fitness bits, finite factors.
func sameWire(res *repro.Result, raw []byte, ref *repro.Result, refRaw []byte) error {
	if !bytes.Equal(raw, refRaw) {
		return fmt.Errorf("HTTP result bytes differ from the in-process result")
	}
	if err := sameBits("fitness", res.Fitness, ref.Fitness); err != nil {
		return err
	}
	return finiteFactors(res)
}

// reportLayers emits every per-layer metric from the spans and counts.
func reportLayers(tr *tracer, rep *report, c layerCounts, hook *waitHook, eng *repro.Engine, iters int, harness harnessStats) {
	med := func(name string) float64 { return median(tr.durations(name)) }
	n := func(name string) int { return len(tr.durations(name)) }
	span := func(metric, name string) { rep.add(metric, unitMS, med(name), n(name)) }

	span("parafac2.compress_ms", "parafac2.compress")
	span("parafac2.iterate_ms", "parafac2.iterate")
	rep.add("parafac2.iter_ms", unitMS, med("parafac2.iterate")/float64(iters), n("parafac2.iterate"))
	span("parafac2.fitness_ms", "parafac2.fitness")
	rep.add("parafac2.allocs_per_iter", unitCount, c.allocsPerIter, 0)
	rep.add("parafac2.compressed_bytes", unitBytes, c.compressedBytes, 0)
	span("parafac2.absorb_ms", "parafac2.absorb")

	span("rsvd.stage1_serial_ms", "rsvd.stage1_serial")
	span("rsvd.stage2_ms", "rsvd.stage2")
	span("lapack.qr_ms", "lapack.qr")
	span("lapack.factorbatch_ms", "lapack.factorbatch")
	rep.add("lapack.pool_draws_per_op", unitCount, c.poolDraws, 0)
	rep.add("mat.sketch_gflops", unitGF, c.sketchFlops/1e6/med("mat.sketch"), n("mat.sketch"))
	rep.add("mat.sketch_flops", unitCount, c.sketchFlops, 0)
	rep.add("mat.sketch_bytes", unitBytes, c.sketchBytes, 0)

	rep.add("scheduler.imbalance", unitRatio, c.imbalance, 0)
	rep.add("compute.stage1_speedup", unitRatio,
		med("rsvd.stage1_serial")/(med("parafac2.compress")-med("rsvd.stage2")), 0)

	span("engine.direct_ms", "engine.direct")
	span("engine.cache_hit_ms", "engine.cache_hit")
	hits, misses := eng.CacheCounters()
	rep.add("engine.cache_hit_ratio", unitRatio, float64(hits)/float64(hits+misses), int(hits+misses))
	hook.mu.Lock()
	rep.add("admission.queue_wait_p50_ms", unitMS, median(hook.waits), len(hook.waits))
	rep.add("admission.queue_wait_p90_ms", unitMS, quantile(hook.waits, 0.9), len(hook.waits))
	rep.add("admission.max_depth", unitCount, float64(hook.maxDepth), 0)
	hook.mu.Unlock()

	span("state.checkpoint_ms", "state.checkpoint")
	rep.add("state.checkpoint_bytes", unitBytes, c.checkpointBytes, 0)
	span("dataio.tensor_decode_ms", "dataio.tensor_decode")
	span("dataio.result_encode_ms", "dataio.result_encode")
	span("dataio.result_decode_ms", "dataio.result_decode")
	rep.add("dataio.result_bytes", unitBytes, c.resultBytes, 0)

	rep.add("service.hit_overhead_ms", unitMS, med("http.hit")-med("engine.cache_hit"), n("http.hit"))
	rep.add("service.miss_overhead_ms", unitMS, med("http.miss")-med("engine.direct"), n("http.miss"))
	rep.add("service.absorb_overhead_ms", unitMS,
		med("http.absorb")-med("parafac2.absorb")-med("state.checkpoint"), n("http.absorb"))
	rep.add("service.response_bytes", unitBytes, harness.responseBytes, 0)

	rep.add("bench.gen_lag_p90_ms", unitMS, quantile(harness.lag, 0.9), len(harness.lag))
	rep.add("bench.trace_overhead_pct", unitPct,
		100*(harness.tracedP50-harness.untracedP50)/harness.untracedP50, 0)
}

// harnessStats are the traced run's measurements of the benchmark itself.
type harnessStats struct {
	lag                    []float64 // harness time between ops, ms
	untracedP50, tracedP50 float64   // op_p50_ms without and with tracing
	responseBytes          float64   // body bytes of one cache-hit decompose reply
}
