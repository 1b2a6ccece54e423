package repro

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataio"
	"repro/internal/parafac2"
	"repro/internal/tensor"
)

// countingMethod wraps the registered DPar2 method and counts invocations —
// the counter-asserted proof that a cache hit serves a repeated Decompose
// without running the method.
type countingMethod struct {
	inner parafac2.Method
	calls atomic.Int64
}

func (c *countingMethod) Name() string { return "counting-dpar2" }

func (c *countingMethod) Decompose(ctx context.Context, t *tensor.Irregular, cfg parafac2.Config) (*parafac2.Result, error) {
	c.calls.Add(1)
	return c.inner.Decompose(ctx, t, cfg)
}

var (
	countingOnce sync.Once
	counting     *countingMethod
)

// countingDPar2 registers (once) and returns the counting wrapper.
func countingDPar2(t *testing.T) *countingMethod {
	t.Helper()
	countingOnce.Do(func() {
		inner, err := parafac2.MustLookup(string(MethodDPar2))
		if err != nil {
			panic(err)
		}
		counting = &countingMethod{inner: inner}
		parafac2.Register(counting)
	})
	return counting
}

func resultsEqualBits(t *testing.T, a, b *Result) {
	t.Helper()
	if !a.H.EqualApprox(b.H, 0) || !a.V.EqualApprox(b.V, 0) {
		t.Fatal("H/V differ")
	}
	if a.K() != b.K() {
		t.Fatalf("K %d vs %d", a.K(), b.K())
	}
	for k := 0; k < a.K(); k++ {
		if !a.Qk(k).EqualApprox(b.Qk(k), 0) {
			t.Fatalf("Q_%d differs", k)
		}
		for i := range a.S[k] {
			if a.S[k][i] != b.S[k][i] {
				t.Fatalf("S_%d differs", k)
			}
		}
	}
	if a.Fitness != b.Fitness || a.FitnessKind != b.FitnessKind || a.Iters != b.Iters {
		t.Fatalf("run metadata differs: fitness %v/%v kind %v/%v iters %d/%d",
			a.Fitness, b.Fitness, a.FitnessKind, b.FitnessKind, a.Iters, b.Iters)
	}
}

// TestEngineResultCacheHit is the tentpole acceptance test: a repeated
// Decompose is served from the cache without invoking the method, with
// hit/miss counters surfaced through CacheCounters, EngineStats, and the
// per-tenant Submit path.
func TestEngineResultCacheHit(t *testing.T) {
	cm := countingDPar2(t)
	stats := &EngineStats{}
	dir := t.TempDir()
	eng := NewEngine(
		WithBaseConfig(engineTestConfig()),
		WithStateDir(dir),
		WithResultCache(1<<22),
		WithEngineMetrics(stats),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(11)
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	first, err := eng.Decompose(ctx, ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("first Decompose invoked the method %d times", got)
	}

	second, err := eng.Decompose(ctx, ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("cache hit still invoked the method (%d total calls)", got)
	}
	resultsEqualBits(t, first, second)

	hits, misses := eng.CacheCounters()
	if hits != 1 || misses != 1 {
		t.Fatalf("CacheCounters = (%d, %d), want (1, 1)", hits, misses)
	}
	def := stats.Tenant("")
	if def.CacheHits != 1 || def.CacheMisses != 1 {
		t.Fatalf("EngineStats default tenant cache counters = (%d, %d), want (1, 1)",
			def.CacheHits, def.CacheMisses)
	}

	// The Submit path consults the same cache and attributes the hit to the
	// job's tenant.
	jr := <-eng.Submit(ctx, Job{Tensor: ten, Options: []Option{opt}, Tenant: "acme"})
	if jr.Err != nil {
		t.Fatal(jr.Err)
	}
	if got := cm.calls.Load() - before; got != 1 {
		t.Fatalf("submitted job missed the cache (%d total calls)", got)
	}
	resultsEqualBits(t, first, jr.Result)
	if acme := stats.Tenant("acme"); acme.CacheHits != 1 {
		t.Fatalf("tenant acme cache hits = %d, want 1", acme.CacheHits)
	}

	// A different knob is a different key: changing the rank must miss.
	if _, err := eng.Decompose(ctx, ten, opt, WithRank(3)); err != nil {
		t.Fatal(err)
	}
	if got := cm.calls.Load() - before; got != 2 {
		t.Fatalf("rank change should have missed the cache (%d total calls)", got)
	}
}

// TestEngineCacheBypassesSideEffectRuns: convergence traces and Progress
// callbacks must actually run, so those calls never consult or populate the
// cache.
func TestEngineCacheBypassesSideEffectRuns(t *testing.T) {
	cm := countingDPar2(t)
	eng := NewEngine(
		WithBaseConfig(engineTestConfig()),
		WithStateDir(t.TempDir()),
		WithResultCache(1<<22),
	)
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(12)
	opt := WithMethod(MethodID(cm.Name()))

	before := cm.calls.Load()
	for i := 0; i < 2; i++ {
		if _, err := eng.Decompose(ctx, ten, opt, WithConvergenceTrace()); err != nil {
			t.Fatal(err)
		}
	}
	calls := 0
	progress := WithProgress(func(int, float64) bool { calls++; return true })
	if _, err := eng.Decompose(ctx, ten, opt, progress); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("Progress callback never ran")
	}
	if got := cm.calls.Load() - before; got != 3 {
		t.Fatalf("side-effect runs were cached (%d calls, want 3)", got)
	}
	if hits, misses := eng.CacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("bypassed runs touched the cache: (%d, %d)", hits, misses)
	}
}

// TestEngineCachePersistsAcrossEngines: the cache is on disk — a new Engine
// over the same state directory serves the previous engine's results.
func TestEngineCachePersistsAcrossEngines(t *testing.T) {
	cm := countingDPar2(t)
	dir := t.TempDir()
	ten := engineTestTensor(13)
	opt := WithMethod(MethodID(cm.Name()))
	build := func() *Engine {
		return NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir), WithResultCache(1<<22))
	}

	eng1 := build()
	first, err := eng1.Decompose(context.Background(), ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	before := cm.calls.Load()
	eng2 := build()
	defer eng2.Close()
	second, err := eng2.Decompose(context.Background(), ten, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cm.calls.Load() != before {
		t.Fatal("second engine re-ran a cached decomposition")
	}
	resultsEqualBits(t, first, second)
	if hits, _ := eng2.CacheCounters(); hits != 1 {
		t.Fatalf("second engine hits = %d, want 1", hits)
	}
}

// TestEngineCacheSkipsNonFiniteResults: a decomposition whose fitness is NaN
// (one NaN input entry poisons every factor) is never stored, so a repeat
// recomputes instead of replaying the failure as a hit.
func TestEngineCacheSkipsNonFiniteResults(t *testing.T) {
	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(t.TempDir()), WithResultCache(1<<22))
	defer eng.Close()
	ten := engineTestTensor(14)
	ten.Slices[1].Data[7] = math.NaN()
	for i := 0; i < 2; i++ {
		res, err := eng.Decompose(context.Background(), ten)
		if err == nil && !math.IsNaN(res.Fitness) && !math.IsInf(res.Fitness, 0) {
			t.Fatalf("run %d: NaN input gave finite fitness %v", i, res.Fitness)
		}
	}
	if hits, misses := eng.CacheCounters(); hits != 0 || misses != 2 {
		t.Fatalf("CacheCounters = (%d, %d), want (0, 2)", hits, misses)
	}
}

// TestEngineJobResultCarriesDPF2: a cached job's JobResult.DPF2 is exactly
// dataio.WriteResult of its Result — the stored encoding on the miss, the
// verified entry bytes on the hit — and nil without a cache. A corrupted
// entry is a miss whose bytes are recomputed, never handed out.
func TestEngineJobResultCarriesDPF2(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir), WithResultCache(1<<22))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(16)
	submit := func() JobResult {
		t.Helper()
		jr := <-eng.Submit(ctx, Job{Tensor: ten})
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
		var buf bytes.Buffer
		if err := dataio.WriteResult(&buf, jr.Result); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jr.DPF2, buf.Bytes()) {
			t.Fatalf("JobResult.DPF2 (%d bytes) is not WriteResult of its Result (%d bytes)", len(jr.DPF2), buf.Len())
		}
		return jr
	}
	miss := submit()
	hit := submit()
	if hits, misses := eng.CacheCounters(); hits != 1 || misses != 1 {
		t.Fatalf("CacheCounters = (%d, %d), want (1, 1)", hits, misses)
	}
	if !bytes.Equal(hit.DPF2, miss.DPF2) {
		t.Fatal("hit bytes differ from the miss's")
	}

	entries, err := filepath.Glob(filepath.Join(dir, "cache", "*.cache"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one cache entry, found %v (%v)", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	again := submit()
	if hits, misses := eng.CacheCounters(); hits != 1 || misses != 2 {
		t.Fatalf("corrupt entry: CacheCounters = (%d, %d), want (1, 2)", hits, misses)
	}
	if !bytes.Equal(again.DPF2, miss.DPF2) {
		t.Fatal("bytes after a corrupt entry differ from the original result's")
	}

	plain := NewEngine(WithBaseConfig(engineTestConfig()))
	defer plain.Close()
	if jr := <-plain.Submit(ctx, Job{Tensor: ten}); jr.Err != nil || jr.DPF2 != nil {
		t.Fatalf("uncached engine: err %v, DPF2 %d bytes, want no bytes", jr.Err, len(jr.DPF2))
	}
}

// TestEngineCacheKeysOnSuppliedDigest: a non-zero Job.TensorDigest is what
// the lookup keys on — the right digest hits, a wrong one misses (so the
// Engine did not re-hash the tensor), and a zero one hits through the
// computed digest.
func TestEngineCacheKeysOnSuppliedDigest(t *testing.T) {
	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(t.TempDir()), WithResultCache(1<<22))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(15)
	if _, err := eng.Decompose(ctx, ten); err != nil {
		t.Fatal(err)
	}
	wrong := TensorDigest(ten)
	wrong[0] ^= 1
	for _, tc := range []struct {
		name   string
		digest [32]byte
		hit    bool
	}{
		{"supplied digest", TensorDigest(ten), true},
		{"wrong digest", wrong, false},
		{"zero digest", [32]byte{}, true},
	} {
		hits0, misses0 := eng.CacheCounters()
		jr := <-eng.Submit(ctx, Job{Tensor: ten, TensorDigest: tc.digest})
		if jr.Err != nil {
			t.Fatalf("%s: %v", tc.name, jr.Err)
		}
		hits, misses := eng.CacheCounters()
		if got := hits-hits0 == 1 && misses == misses0; got != tc.hit {
			t.Fatalf("%s: hit = %v, want %v (hits %d→%d, misses %d→%d)",
				tc.name, got, tc.hit, hits0, hits, misses0, misses)
		}
	}
}

// TestEngineLeavesInputDigestUnchanged pins the invariant Job.TensorDigest
// reuse relies on: no registered method run through Engine.Decompose, and
// neither NewStream nor Absorb, mutates the tensor it was handed.
func TestEngineLeavesInputDigestUnchanged(t *testing.T) {
	eng := NewEngine(WithBaseConfig(engineTestConfig()))
	defer eng.Close()
	ctx := context.Background()
	ten := engineTestTensor(16)
	want := TensorDigest(ten)
	for _, name := range Methods() {
		if _, err := eng.Decompose(ctx, ten, WithMethod(MethodID(name))); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if TensorDigest(ten) != want {
			t.Fatalf("%s changed its input tensor", name)
		}
	}

	initial, err := NewIrregular(ten.Slices[:2])
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewIrregular(ten.Slices[2:])
	if err != nil {
		t.Fatal(err)
	}
	wantInitial, wantBatch := TensorDigest(initial), TensorDigest(batch)
	stream, err := eng.NewStream(ctx, initial)
	if err != nil {
		t.Fatal(err)
	}
	if TensorDigest(initial) != wantInitial {
		t.Fatal("NewStream changed its initial tensor")
	}
	if err := stream.AbsorbCtx(ctx, batch.Slices); err != nil {
		t.Fatal(err)
	}
	if TensorDigest(initial) != wantInitial || TensorDigest(batch) != wantBatch {
		t.Fatal("Absorb changed the initial tensor or its batch")
	}
}

// TestEngineSaveResumeStream: the engine-level checkpoint path — relative
// paths under the state dir, atomic write, restore rebinding to the pool,
// and bit-identical continuation.
func TestEngineSaveResumeStream(t *testing.T) {
	dir := t.TempDir()
	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir))
	defer eng.Close()
	ctx := context.Background()

	g := NewRNG(21)
	full := LowRankTensor(g, []int{50, 60, 45, 55, 65, 40}, 18, 3, 0.02)
	initial := tensor.MustIrregular(full.Slices[:3])
	st, err := eng.NewStream(ctx, initial, WithRank(3), WithMaxIters(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Absorb(full.Slices[3:4]); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveStream("streams/run.dpc2", st); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "streams", "run.dpc2")); err != nil {
		t.Fatalf("relative checkpoint path not under state dir: %v", err)
	}

	back, err := eng.ResumeStream(ctx, "streams/run.dpc2")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Absorb(full.Slices[4:]); err != nil {
		t.Fatal(err)
	}
	if err := back.Absorb(full.Slices[4:]); err != nil {
		t.Fatal(err)
	}
	if st.K() != back.K() {
		t.Fatalf("K %d vs %d", st.K(), back.K())
	}
	resultsEqualBits(t, st.Result(), back.Result())
}

// TestEngineSaveStreamNeedsDirForRelative: SaveStream must also work with no
// state dir when given an explicit path, and reject nil streams.
func TestEngineSaveStreamValidation(t *testing.T) {
	eng := NewEngine(WithBaseConfig(engineTestConfig()))
	defer eng.Close()
	if err := eng.SaveStream(filepath.Join(t.TempDir(), "x.dpc2"), nil); err == nil {
		t.Fatal("expected error for nil stream")
	}

	g := NewRNG(22)
	full := LowRankTensor(g, []int{40, 50, 45}, 14, 3, 0.02)
	st, err := eng.NewStream(context.Background(), full, WithRank(3), WithMaxIters(8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "explicit.dpc2")
	if err := eng.SaveStream(path, st); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ResumeStream(context.Background(), path); err != nil {
		t.Fatal(err)
	}

	eng.Close()
	if err := eng.SaveStream(path, st); err != ErrEngineClosed {
		t.Fatalf("SaveStream on closed engine: %v", err)
	}
	if _, err := eng.ResumeStream(context.Background(), path); err != ErrEngineClosed {
		t.Fatalf("ResumeStream on closed engine: %v", err)
	}
}

// TestEngineDurableOptionValidation: the eager-validation contract extends to
// the durable-state options.
func TestEngineDurableOptionValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("WithStateDir empty", func() { NewEngine(WithStateDir("")) })
	expectPanic("WithResultCache zero", func() { NewEngine(WithResultCache(0)) })
	expectPanic("WithResultCache negative", func() { NewEngine(WithResultCache(-1)) })
	expectPanic("cache without state dir", func() { NewEngine(WithResultCache(1 << 20)) })
}

// TestNewEngineSweepsStaleTemps: a SaveStream killed mid-write leaves a hidden
// ".<name>.tmp-*" orphan in the state dir; the next engine built on that dir
// must sweep it at init, while visible checkpoints survive untouched.
func TestNewEngineSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, ".run.dpc2.tmp-12345")
	keep := filepath.Join(dir, "run.dpc2")
	for _, p := range []string{orphan, keep} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng := NewEngine(WithBaseConfig(engineTestConfig()), WithStateDir(dir))
	defer eng.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("stale temp %s survived NewEngine (stat err: %v)", orphan, err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("visible checkpoint swept: %v", err)
	}
}
