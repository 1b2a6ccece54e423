package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/admission"
	"repro/internal/dataio"
	"repro/internal/parafac2"
	"repro/internal/state"
)

// This file is the Engine's durable-state surface: stream checkpointing
// (SaveStream/ResumeStream) and the content-addressed result cache consulted
// by Decompose/Submit. The primitives live in internal/state, the formats in
// internal/parafac2 (checkpoints) and internal/dataio (results); see
// docs/DURABILITY.md for the formats and the crash-safety contract.

// statePath resolves a stream path: relative paths land under the
// WithStateDir root when one is configured.
func (e *Engine) statePath(path string) string {
	if e.stateDir != "" && !filepath.IsAbs(path) {
		return filepath.Join(e.stateDir, path)
	}
	return path
}

// SaveStream checkpoints a stream to the named file atomically: the complete
// stream state (configuration, RNG, compressed representation, factors) is
// written to a temp file, fsynced, and renamed over path, so a crash
// mid-checkpoint leaves the previous checkpoint intact. A relative path
// resolves under the WithStateDir root when one is configured. The stream
// itself is untouched and keeps absorbing.
func (e *Engine) SaveStream(path string, s *StreamingDPar2) error {
	if e.isClosed() {
		return ErrEngineClosed
	}
	if s == nil {
		return errors.New("repro: SaveStream with nil stream")
	}
	dst := e.statePath(path)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return state.WriteFileAtomic(dst, s.Checkpoint)
}

// ResumeStream restores a stream from a SaveStream checkpoint and rebinds it
// to the Engine's pool: the next Absorb is bit-identical to the same Absorb
// on the stream that was checkpointed. Deterministic knobs (rank, seed,
// iteration budget, sketch parameters) come from the checkpoint; opts may
// adjust only runtime bindings the same way NewStream accepts them (an
// option that names a non-DPar2 method is an error, like NewStream).
func (e *Engine) ResumeStream(ctx context.Context, path string, opts ...Option) (*StreamingDPar2, error) {
	_, _, _, cfg, err := e.prepare(ctx, opts, true, "ResumeStream")
	if err != nil {
		return nil, err
	}
	f, err := os.Open(e.statePath(path))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parafac2.RestoreStream(f, cfg)
}

// CacheCounters reports the result cache's cumulative hits and misses since
// the Engine was built (both zero when WithResultCache is off). Per-tenant
// counts are available through a WithEngineMetrics hook implementing
// CacheMetrics (EngineStats does).
func (e *Engine) CacheCounters() (hits, misses uint64) {
	if e.cache == nil {
		return 0, 0
	}
	return e.cache.Counters()
}

// TensorDigest returns the sha256 of t's canonical DPT2 payload (the bytes
// of a DPT2 tensor file before its checksum trailer, see docs/DURABILITY.md):
// the tensor's content identity. The result cache keys on it, and the HTTP
// service derives tensor IDs from it, so a caller that already holds the
// digest of an immutable tensor can pass it as Job.TensorDigest instead of
// paying for a second pass over the input.
func TensorDigest(t *Irregular) [32]byte { return dataio.TensorDigest(t) }

// resultCacheKey derives the cache key for one decomposition, or reports the
// call uncacheable: caching is off, a Progress callback must run, or a
// convergence trace was requested (the trace is not serialized). The key is
// a sha256 over a format tag, the method name, the request's canonical Spec
// (every deterministic knob, with ShardRows resolved to its effective
// threshold), and the tensor's TensorDigest — so any change to input data or
// to a result-affecting parameter misses, while Threads/Pool (which never
// change the computed bits) do not split the cache. Because the key reads
// only the Spec, an HTTP request resolved to the same Spec
// (internal/service) hits the same entry as the equivalent in-process call.
// A non-zero digest is trusted as t's TensorDigest (see Job.TensorDigest);
// a zero one is computed here.
func (e *Engine) resultCacheKey(m parafac2.Method, t *Irregular, digest [32]byte, js jobSpec) (string, bool) {
	if e.cache == nil || js.run.progress != nil || js.run.trackConvergence {
		return "", false
	}
	if digest == ([32]byte{}) {
		digest = dataio.TensorDigest(t)
	}
	spec := js.spec
	var knobs [9 * 8]byte
	for i, v := range [...]uint64{
		uint64(spec.Rank),
		uint64(spec.MaxIters),
		math.Float64bits(spec.Tol),
		spec.Seed,
		uint64(spec.Oversample),
		uint64(spec.PowerIters),
		uint64(int64(spec.shardRowsThreshold())),
		math.Float64bits(spec.Ridge),
		boolBit(spec.NonnegativeS),
	} {
		binary.LittleEndian.PutUint64(knobs[i*8:], v)
	}
	return state.Key(
		[]byte("repro:result-cache:v3"),
		[]byte(m.Name()),
		knobs[:],
		digest[:],
	), true
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Cached-entry payload: a small run-metadata header, then the result's DPF2
// bytes exactly as dataio.WriteResult writes them. ReadResult deliberately
// drops run artifacts (fitness, iteration count), but a cache hit stands in
// for the run itself, so those must come back; the header carries them.
// Timings stay zero on a hit — the work they would measure never happened.
const cacheHdrBytes = 4 * 8

// cacheLookup fetches and decodes a cached result, returning it with its
// DPF2 bytes (a subslice of the verified entry). The entry is read in full
// and its checksum checked before it is decoded; any corruption is handled
// inside state.Cache (entry dropped, reported as a miss).
func (e *Engine) cacheLookup(key string) (*Result, []byte, bool) {
	var res *Result
	var raw []byte
	hit, err := e.cache.Get(key, func(payload []byte) error {
		if len(payload) < cacheHdrBytes {
			return io.ErrUnexpectedEOF
		}
		hdr, body := payload[:cacheHdrBytes], payload[cacheHdrBytes:]
		dec, err := dataio.ReadResult(bytes.NewReader(body))
		if err != nil {
			return err
		}
		dec.Fitness = math.Float64frombits(binary.LittleEndian.Uint64(hdr[0:]))
		dec.FitnessKind = FitnessKind(binary.LittleEndian.Uint64(hdr[8:]))
		dec.Iters = int(binary.LittleEndian.Uint64(hdr[16:]))
		dec.PreprocessedBytes = int64(binary.LittleEndian.Uint64(hdr[24:]))
		res, raw = dec, body
		return nil
	})
	if err != nil || !hit {
		return nil, nil, false
	}
	return res, raw, true
}

// cacheStore encodes a successful result to DPF2, persists it, and returns
// the encoding so the caller need not make it again. Storing is best-effort:
// a full disk or unwritable cache directory must not fail the decomposition
// that produced the result, so the error is dropped (the next lookup simply
// misses) and the bytes, which are the same either way, are still returned.
// A result whose fitness is not finite (NaN or Inf input, numerical
// breakdown) is never stored, and cacheStore returns nil: a repeat of the
// call must recompute, not replay the failure as a hit.
func (e *Engine) cacheStore(key string, res *Result) []byte {
	if math.IsNaN(res.Fitness) || math.IsInf(res.Fitness, 0) {
		return nil
	}
	var buf bytes.Buffer
	if err := dataio.WriteResult(&buf, res); err != nil {
		return nil
	}
	raw := buf.Bytes()
	_ = e.cache.Put(key, func(w io.Writer) error {
		var hdr [cacheHdrBytes]byte
		binary.LittleEndian.PutUint64(hdr[0:], math.Float64bits(res.Fitness))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(res.FitnessKind))
		binary.LittleEndian.PutUint64(hdr[16:], uint64(res.Iters))
		binary.LittleEndian.PutUint64(hdr[24:], uint64(res.PreprocessedBytes))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		_, err := w.Write(raw)
		return err
	})
	return raw
}

// noteCache forwards a cache event to the metrics hook when it implements
// the optional CacheMetrics extension.
func (e *Engine) noteCache(tenant string, hit bool) {
	cm, ok := e.metrics.(admission.CacheMetrics)
	if !ok {
		return
	}
	if hit {
		cm.CacheHit(tenant)
	} else {
		cm.CacheMiss(tenant)
	}
}
