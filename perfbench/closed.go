package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/service"
)

// closedWorkload is a closed-loop workload: one caller runs sequential
// Engine.Decompose calls on one tensor with one Spec and no result cache.
type closedWorkload struct {
	name        string
	rank, iters int
	// sloMS is the latency limit behind slo_ratio, about 1.25 times the
	// op_p90_ms measured when the benchmark was defined, so that a tail
	// regression moves it; floor is the lowest fitness accepted.
	sloMS, floor float64
	tensor       func(g *repro.RNG) *repro.Irregular
	// batch draws the two new slices the absorb probe folds into a stream.
	batch func(g *repro.RNG) []*repro.Matrix
}

var closedWorkloads = map[string]closedWorkload{
	// US-market stock tensor: K=120 stocks, 100-2000 trading days (long
	// tail), J=88 features; ≈38 MB, larger than L2.
	"stock": {
		name: "stock", rank: 10, iters: 10, sloMS: 310, floor: 0.88,
		tensor: func(g *repro.RNG) *repro.Irregular { return stockTensor(g, 120, 100, 2000) },
		batch:  func(g *repro.RNG) []*repro.Matrix { return stockTensor(g, 2, 100, 2000).Slices },
	},
	// Traffic tensor: K=150 regular 24×96 slices; ≈2.8 MB, fits in L2.
	"traffic": {
		name: "traffic", rank: 16, iters: 32, sloMS: 620, floor: 0.98,
		tensor: func(g *repro.RNG) *repro.Irregular { return repro.NewTrafficTensor(g, 150, 24, 96) },
		batch:  func(g *repro.RNG) []*repro.Matrix { return repro.NewTrafficTensor(g, 2, 24, 96).Slices },
	},
}

const (
	setupRuns  = 5 // set-ups per run; setup_s is their median
	minSamples = 8 // fewest samples any timed class or phase takes
	// traceSplit is the share of --seconds a traced run spends on untraced
	// ops alternating with traced ones; the layer calls follow.
	traceSplit = 0.70
)

// closedEnv is one set-up of a closed workload.
type closedEnv struct {
	w      closedWorkload
	ten    *repro.Irregular
	batch  []*repro.Matrix
	spec   repro.Spec
	pool   *repro.Pool
	eng    *repro.Engine // no cache: runs the timed op
	cached *repro.Engine // result cache and state dir: hit and absorb probes
	srv    *httpServer   // serves cached; the hit probes go through it
	id     string        // ten's ID on srv
	dir    string
	stream *repro.StreamingDPar2 // over ten on cached; absorb probes fork it
	ref    *repro.Result         // the warm-up result every op must reproduce
	refRaw []byte
	close  func()
}

// setupClosed generates the inputs, starts the Engines (pool width 2) and a
// server over the cached one, and warms up: the tensor is uploaded, one
// cached Decompose fills the pool's arenas and the cache entry the hit probes
// read, and the absorb probes' stream is built.
func setupClosed(w closedWorkload, seed uint64, hook *waitHook) (*closedEnv, error) {
	g := repro.NewRNG(seed)
	env := &closedEnv{w: w, ten: w.tensor(g), batch: w.batch(g), spec: specFor(w.rank, w.iters, seed)}
	dir, cleanup, err := stateDir()
	if err != nil {
		return nil, err
	}
	env.dir = dir
	env.pool = repro.NewPool(2)
	env.eng = repro.NewEngine(repro.WithEnginePool(env.pool))
	opts := []repro.EngineOption{repro.WithEnginePool(env.pool), repro.WithStateDir(dir), repro.WithResultCache(1 << 30)}
	if hook != nil {
		opts = append(opts, repro.WithEngineMetrics(hook))
	}
	env.cached = repro.NewEngine(opts...)
	env.close = func() {
		if env.srv != nil {
			env.srv.close()
		}
		env.eng.Close()
		env.cached.Close()
		env.pool.Close()
		cleanup()
	}
	ctx := context.Background()
	if env.srv, err = startServer(env.cached, dir); err == nil {
		var info service.TensorInfo
		info, err = env.srv.client.UploadTensor(ctx, env.ten)
		env.id = info.TensorID
	}
	if err == nil {
		env.ref, err = env.cached.Decompose(ctx, env.ten, repro.WithSpec(env.spec))
	}
	if err == nil {
		env.refRaw, err = resultBytes(env.ref)
	}
	if err == nil {
		env.stream, err = env.cached.NewStream(ctx, env.ten, repro.WithSpec(env.spec))
	}
	if err != nil {
		env.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return env, nil
}

// setupTimed runs setup n times, keeping the last environment, and returns
// each set-up's wall time in seconds.
func setupTimed[E any](n int, setup func() (E, error), closeEnv func(E)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			closeEnv(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		env = e
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

func runClosed(w closedWorkload, p params, tr *tracer, rep *report) error {
	var hook *waitHook
	n := setupRuns
	if tr != nil {
		hook, n = &waitHook{}, 1
	}
	env, setups, err := setupTimed(n, func() (*closedEnv, error) { return setupClosed(w, p.seed, hook) },
		func(e *closedEnv) { e.close() })
	if err != nil {
		return err
	}
	defer env.close()
	rep.op("warm-up", checkResult(env.ref, w.floor))
	budget := time.Duration(p.seconds * float64(time.Second))
	start := time.Now()
	at := func(share float64) time.Time { return start.Add(time.Duration(share * float64(budget))) }

	if tr != nil {
		return traceClosed(env, tr, hook, rep, at)
	}

	m := env.mixedLoop(at(1), rep)
	ops := m.ops
	rep.add("op_p50_ms", unitMS, median(ops.lat), len(ops.lat))
	rep.add("op_p90_ms", unitMS, quantile(ops.lat, 0.9), len(ops.lat))
	rep.add("ops_per_s", unitRate, float64(len(ops.lat))/m.spent[classOp].Seconds(), len(ops.lat))
	rep.add("slo_ratio", unitRatio, float64(ops.withinSLO)/float64(ops.attempted), ops.attempted)
	rep.add("fitness", unitRatio, ops.minFitness, len(ops.lat))
	rep.add("alloc_mb_per_op", unitMB, m.opAllocMB/float64(ops.attempted), ops.attempted)
	rep.add("hit_p50_ms", unitMS, median(m.hits), len(m.hits))
	rep.add("hit_p90_ms", unitMS, quantile(m.hits, 0.9), len(m.hits))
	rep.add("absorb_p50_ms", unitMS, median(m.absorbs), len(m.absorbs))
	rep.finishE2E(setups)
	return nil
}

// finishE2E adds the end-to-end metrics every workload reports the same way.
func (r *report) finishE2E(setups []float64) {
	r.add("setup_s", unitS, median(setups), len(setups))
	r.add("max_rss_mb", unitMB, peakRSSMB(), 0)
	r.add("ok_ratio", unitRatio, float64(r.attempted-r.failed)/float64(r.attempted), r.attempted)
}

// Classes of the untraced run's calls.
const (
	classOp     = iota // uncached Decompose: the timed op
	classHit           // cache-hit decompose request through the HTTP service
	classAbsorb        // absorb probe: stream absorb plus checkpoint
	nClasses
)

// classShares are the shares of the untraced run's time each class takes.
// The classes interleave, so every class samples the whole run and host
// drift within a run weighs on all of them alike.
var classShares = [nClasses]float64{0.65, 0.15, 0.20}

// mixedStats is what the untraced run measured.
type mixedStats struct {
	ops           opStats
	hits, absorbs []float64 // latency of each successful call, ms
	spent         [nClasses]time.Duration
	opAllocMB     float64 // heap allocated by the ops
}

// mixedLoop runs the classes interleaved until the deadline, and until each
// has minSamples calls: the next call is of the class furthest below its
// share of the time spent so far.
func (env *closedEnv) mixedLoop(until time.Time, rep *report) mixedStats {
	m := mixedStats{ops: opStats{minFitness: env.ref.Fitness}}
	var calls [nClasses]int
	var first *repro.Result
	behind := func(k int) float64 { return float64(m.spent[k]) / classShares[k] }
	for {
		done := !time.Now().Before(until)
		c := -1
		for k := range classShares {
			if done && calls[k] >= minSamples {
				continue
			}
			if c < 0 || behind(k) < behind(c) {
				c = k
			}
		}
		if c < 0 {
			return m
		}
		t0 := time.Now()
		switch c {
		case classOp:
			mem := startMem()
			env.decomposeOnce(&m.ops, rep)
			m.opAllocMB += mem.mb()
		case classHit:
			if d, ok := env.hitOnce(rep); ok {
				m.hits = append(m.hits, d)
			}
		case classAbsorb:
			if d, ok := env.absorbOnce(&first, rep); ok {
				m.absorbs = append(m.absorbs, d)
			}
		}
		m.spent[c] += time.Since(t0)
		calls[c]++
	}
}

// opStats summarises the Decompose ops of a run.
type opStats struct {
	lat        []float64 // latency of each successful op, ms
	attempted  int
	withinSLO  int
	minFitness float64
}

// decomposeOnce runs one uncached Decompose, checks it against the warm-up
// result, and records it in st. It returns when the Decompose returned.
func (env *closedEnv) decomposeOnce(st *opStats, rep *report) time.Time {
	t0 := time.Now()
	res, err := env.eng.Decompose(context.Background(), env.ten, repro.WithSpec(env.spec))
	end := time.Now()
	d := ms(end.Sub(t0))
	st.attempted++
	if err == nil {
		err = env.checkOp(res)
	}
	rep.op("decompose", err)
	if err != nil {
		return end
	}
	st.lat = append(st.lat, d)
	st.minFitness = min(st.minFitness, res.Fitness)
	if d <= env.w.sloMS {
		st.withinSLO++
	}
	return end
}

// checkOp: finite factors, fitness above the floor, true fitness, and the
// same fitness bits as the warm-up run of the same input and Spec.
func (env *closedEnv) checkOp(res *repro.Result) error {
	if res.FitnessKind != repro.FitnessTrue {
		return fmt.Errorf("fitness kind %v, want true fitness", res.FitnessKind)
	}
	if err := checkResult(res, env.w.floor); err != nil {
		return err
	}
	return sameBits("fitness", res.Fitness, env.ref.Fitness)
}

// hitOnce times one cache-hit decompose request of the warm-up Spec through
// service.Client; the reply must carry the warm-up result's exact bytes.
func (env *closedEnv) hitOnce(rep *report) (float64, bool) {
	req := service.DecomposeRequest{TensorID: env.id, Spec: service.SpecRequest{Full: &env.spec}}
	t0 := time.Now()
	res, resp, err := env.srv.client.Decompose(context.Background(), req)
	d := ms(time.Since(t0))
	if err == nil {
		err = sameWire(res, resp.ResultDPF2, env.ref, env.refRaw)
	}
	rep.op("cache hit", err)
	return d, err == nil
}

// absorbFork forks a stream, absorbs the batch into the fork and
// checkpoints it with Engine.SaveStream, so every absorb starts from the same
// K. It returns the fork and the latency of absorb plus checkpoint. With a
// tracer the two calls are spans under parent.
func absorbFork(eng *repro.Engine, st *repro.StreamingDPar2, batch []*repro.Matrix, tr *tracer, parent, op int) (*repro.StreamingDPar2, float64, error) {
	fork := st.Clone()
	t0 := time.Now()
	var err error
	if tr == nil {
		if err = fork.Absorb(batch); err == nil {
			err = eng.SaveStream(absorbCheckpoint, fork)
		}
	} else {
		tr.do("parafac2.absorb", parent, op, func() { err = fork.Absorb(batch) })
		if err == nil {
			tr.do("state.checkpoint", parent, op, func() { err = eng.SaveStream(absorbCheckpoint, fork) })
		}
	}
	return fork, ms(time.Since(t0)), err
}

// absorbCheckpoint is where absorb probes checkpoint, under the state dir.
const absorbCheckpoint = "absorb.ckpt"

// absorbOnce times one absorb probe. It must advance K by the batch size,
// and every probe, being the same absorb, must give the fitness bits of the
// first (*first records it).
func (env *closedEnv) absorbOnce(first **repro.Result, rep *report) (float64, bool) {
	fork, d, err := absorbFork(env.cached, env.stream, env.batch, nil, 0, 0)
	if err == nil {
		err = checkAbsorb(fork, env.stream.K()+len(env.batch), first)
	}
	rep.op("absorb", err)
	return d, err == nil
}

// checkAbsorb: K advanced to wantK, finite factors, and the same fitness bits
// as the first absorb of the same batch (*first records it).
func checkAbsorb(st *repro.StreamingDPar2, wantK int, first **repro.Result) error {
	if st.K() != wantK {
		return fmt.Errorf("absorb left K=%d, want %d", st.K(), wantK)
	}
	res := st.Result()
	if err := finiteFactors(res); err != nil {
		return err
	}
	if *first == nil {
		*first = res
		return nil
	}
	return sameBits("absorb fitness", res.Fitness, (*first).Fitness)
}

// traceClosed is the traced run of a closed workload: untraced ops
// alternating with the same op split into its layer calls under spans, so
// that host drift weighs on both alike, then the layer calls and sequential
// HTTP round trips on the workload's inputs.
func traceClosed(env *closedEnv, tr *tracer, hook *waitHook, rep *report, at func(float64) time.Time) error {
	li := &layerInputs{
		ten: env.ten, batch: env.batch, spec: env.spec, floor: env.w.floor,
		eng: env.cached, dir: env.dir, stream: env.stream, ref: env.ref, refRaw: env.refRaw,
		seed: env.spec.Seed + 1,
	}
	untraced := opStats{minFitness: env.ref.Fitness}
	var splits []split
	var gaps []float64 // harness time between one op's end and the next's start, ms
	var lastEnd time.Time
	gap := func() {
		if !lastEnd.IsZero() {
			gaps = append(gaps, ms(time.Since(lastEnd)))
		}
	}
	for n := 0; n < minSamples || time.Now().Before(at(traceSplit)); n++ {
		gap()
		lastEnd = env.decomposeOnce(&untraced, rep)
		gap()
		s, comp, err := tracedSplit(tr, env.eng, li)
		lastEnd = time.Now()
		rep.op("traced decompose", err)
		splits = append(splits, s)
		if comp != nil {
			li.comp = comp
		}
	}
	if li.comp == nil {
		return fmt.Errorf("no traced op produced a compressed tensor")
	}
	c := measureLayers(tr, li, rep)
	c.split = medianSplit(splits)
	if err := roundTrips(tr, env.srv, env.id, li, rep); err != nil {
		return err
	}
	respBytes, err := env.srv.hitBytes(env.id, env.spec)
	if err != nil {
		return err
	}
	sum := median(tr.durations("parafac2.compress")) + median(tr.durations("parafac2.iterate")) +
		median(tr.durations("parafac2.fitness"))
	fmt.Fprintf(os.Stderr, "perfbench: traced compress+iterate+fitness %.1f ms vs untraced op_p50 %.1f ms (%+.1f%%)\n",
		sum, median(untraced.lat), 100*(sum/median(untraced.lat)-1))
	reportLayers(tr, rep, c, hook, env.cached, env.ref.Iters, harnessStats{
		lag:           gaps,
		untracedP50:   median(untraced.lat),
		tracedP50:     median(tr.durations("op")),
		responseBytes: respBytes,
	})
	return nil
}
