package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro"
	"repro/internal/state"
)

// postDecompose sends one raw /v1/decompose request with the given Accept
// header ("" = none) and returns the reply with its body read.
func postDecompose(t *testing.T, url, accept string, req DecomposeRequest) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/decompose", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", ContentTypeJSON)
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := readBody(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// binaryReply asks for the binary decompose reply, checks its framing, and
// returns its header metadata and DPF2 body.
func binaryReply(t *testing.T, url string, req DecomposeRequest) (DecomposeResponse, []byte) {
	t.Helper()
	resp, body := postDecompose(t, url, ContentTypeBinary, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary decompose: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary reply Content-Type %q", ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("binary reply Content-Length %q for a %d-byte body", cl, len(body))
	}
	var meta DecomposeResponse
	if err := json.Unmarshal([]byte(resp.Header.Get(HeaderDecomposeMeta)), &meta); err != nil {
		t.Fatalf("%s header: %v", HeaderDecomposeMeta, err)
	}
	if meta.ResultDPF2 != nil {
		t.Fatal("metadata header carries result bytes")
	}
	return meta, body
}

// jsonReply sends a decompose request without an Accept header and decodes
// the JSON reply.
func jsonReply(t *testing.T, url string, req DecomposeRequest) DecomposeResponse {
	t.Helper()
	resp, body := postDecompose(t, url, "", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON decompose: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Fatalf("JSON reply Content-Type %q", ct)
	}
	var out DecomposeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameMeta(t *testing.T, what string, got, want DecomposeResponse) {
	t.Helper()
	if got.Spec != want.Spec {
		t.Fatalf("%s: spec %+v, want %+v", what, got.Spec, want.Spec)
	}
	g, w := got.Meta, want.Meta
	if math.Float64bits(g.Fitness) != math.Float64bits(w.Fitness) || g.FitnessKind != w.FitnessKind ||
		g.Iters != w.Iters || g.PreprocessedBytes != w.PreprocessedBytes {
		t.Fatalf("%s: meta %+v, want %+v", what, g, w)
	}
}

// cachedServer is a test server whose Engine has the result cache on.
func cachedServer(t *testing.T) (*testServer, string) {
	t.Helper()
	dir := t.TempDir()
	return newTestServer(t, Config{}, repro.WithEngineThreads(2),
		repro.WithStateDir(dir), repro.WithResultCache(1<<26)), dir
}

// TestBinaryReplyMatchesJSON: on a miss and on a hit, in either order, the
// binary body equals the JSON reply's result_dpf2 and dataio.WriteResult of
// the in-process result, and both forms carry the same Spec, fitness bits
// and metadata.
func TestBinaryReplyMatchesJSON(t *testing.T) {
	ts, _ := cachedServer(t)
	ctx := context.Background()
	ten := testTensor(81)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	ref := repro.NewEngine(repro.WithEngineThreads(1))
	defer ref.Close()

	for _, binaryFirst := range []bool{true, false} {
		seed := uint64(5)
		if !binaryFirst {
			seed = 6
		}
		spec := SpecRequest{Rank: intp(4), Seed: &seed, MaxIters: intp(7), Tol: f64p(0)}
		direct, err := ref.Decompose(ctx, ten, spec.Options()...)
		if err != nil {
			t.Fatal(err)
		}
		want := resultBytes(t, direct)
		req := DecomposeRequest{TensorID: info.TensorID, Spec: spec}

		hits0, misses0 := ts.eng.CacheCounters()
		var bin, js DecomposeResponse
		var body []byte
		if binaryFirst {
			bin, body = binaryReply(t, ts.hs.URL, req)
			js = jsonReply(t, ts.hs.URL, req)
		} else {
			js = jsonReply(t, ts.hs.URL, req)
			bin, body = binaryReply(t, ts.hs.URL, req)
		}
		if hits, misses := ts.eng.CacheCounters(); hits-hits0 != 1 || misses-misses0 != 1 {
			t.Fatalf("binaryFirst=%v: %d hits, %d misses, want one of each", binaryFirst, hits-hits0, misses-misses0)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("binaryFirst=%v: binary body differs from WriteResult of the in-process result", binaryFirst)
		}
		if !bytes.Equal(js.ResultDPF2, want) {
			t.Fatalf("binaryFirst=%v: JSON result_dpf2 differs from WriteResult of the in-process result", binaryFirst)
		}
		sameMeta(t, "binary vs JSON", bin, js)
		if math.Float64bits(bin.Meta.Fitness) != math.Float64bits(direct.Fitness) || bin.Meta.Iters != direct.Iters {
			t.Fatalf("binaryFirst=%v: meta %+v, in-process fitness %v iters %d", binaryFirst, bin.Meta, direct.Fitness, direct.Iters)
		}

		// The client takes the binary form and decodes the same result.
		res, resp, err := ts.client.Decompose(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.ResultDPF2, want) || !bytes.Equal(resultBytes(t, res), want) {
			t.Fatalf("binaryFirst=%v: client result differs from the in-process bits", binaryFirst)
		}
		sameMeta(t, "client vs JSON", resp, js)
	}
}

// TestCorruptCacheEntryIsMissOverHTTP: a cache entry damaged on disk is
// reported as a miss, recomputed, and never sent: the binary reply carries
// the correct bytes, not the entry's.
func TestCorruptCacheEntryIsMissOverHTTP(t *testing.T) {
	ts, dir := cachedServer(t)
	ctx := context.Background()
	ten := testTensor(82)
	info, err := ts.client.UploadTensor(ctx, ten)
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(4), MaxIters: intp(5), Tol: f64p(0)}}
	_, first, err := ts.client.Decompose(ctx, req) // the miss that stores the entry
	if err != nil {
		t.Fatal(err)
	}
	want := first.ResultDPF2

	entries, err := filepath.Glob(filepath.Join(dir, "cache", "*.cache"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one cache entry, found %v (%v)", entries, err)
	}
	entry, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte of the DPF2 payload: the middle of the entry lies well
	// inside the factors, past the run-metadata header.
	at := len(entry) / 2
	entry[at] ^= 0x40
	if err := os.WriteFile(entries[0], entry, 0o644); err != nil {
		t.Fatal(err)
	}

	hits0, misses0 := ts.eng.CacheCounters()
	_, body := binaryReply(t, ts.hs.URL, req)
	if hits, misses := ts.eng.CacheCounters(); hits != hits0 || misses != misses0+1 {
		t.Fatalf("corrupt entry: counters (%d, %d) → (%d, %d), want one more miss", hits0, misses0, hits, misses)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("reply after a corrupt entry differs from the correct result bytes")
	}
	// The entry is a 32-byte run-metadata header, the DPF2 bytes, and the
	// cache's checksum trailer.
	if bytes.Equal(body, entry[32:len(entry)-state.TrailerSize]) {
		t.Fatal("reply carries the corrupt entry's bytes")
	}

	// The recomputed result was stored again; the next request is a hit
	// with the same bytes.
	_, again := binaryReply(t, ts.hs.URL, req)
	if hits, _ := ts.eng.CacheCounters(); hits != hits0+1 {
		t.Fatalf("re-stored entry did not hit (hits %d → %d)", hits0, hits)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("hit after re-store differs from the correct result bytes")
	}
}

// TestBinaryAcceptErrorsStayJSON: a request asking for the binary form still
// gets every error as the JSON ErrorResponse envelope.
func TestBinaryAcceptErrorsStayJSON(t *testing.T) {
	ts, _ := cachedServer(t)
	info, err := ts.client.UploadTensor(context.Background(), testTensor(83))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		req    DecomposeRequest
		status int
		code   string
	}{
		{"not_found", DecomposeRequest{TensorID: "t-missing"}, http.StatusNotFound, CodeNotFound},
		{"bad_spec", DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(-1)}}, http.StatusBadRequest, CodeBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postDecompose(t, ts.hs.URL, ContentTypeBinary, tc.req)
			if resp.StatusCode != tc.status {
				t.Fatalf("HTTP %d, want %d", resp.StatusCode, tc.status)
			}
			if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
				t.Fatalf("error reply Content-Type %q", ct)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != tc.code || er.Error.Status != tc.status {
				t.Fatalf("error envelope %s (%v), want code %s", body, err, tc.code)
			}
		})
	}
}

// TestClientReadsJSONOnlyServer: against a server that ignores Accept and
// always answers in JSON, Client.Decompose still returns the same bytes and
// metadata.
func TestClientReadsJSONOnlyServer(t *testing.T) {
	ts, _ := cachedServer(t)
	jsonOnly := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		ts.srv.ServeHTTP(w, r)
	}))
	defer jsonOnly.Close()
	old := NewClient(jsonOnly.URL, nil)

	ctx := context.Background()
	info, err := old.UploadTensor(ctx, testTensor(84))
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(3), MaxIters: intp(4)}}
	for i := 0; i < 2; i++ { // a miss, then a hit
		resJSON, viaJSON, err := old.Decompose(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resBin, viaBin, err := ts.client.Decompose(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaJSON.ResultDPF2, viaBin.ResultDPF2) || !bytes.Equal(resultBytes(t, resJSON), viaBin.ResultDPF2) {
			t.Fatalf("request %d: JSON-only reply decodes to different bytes", i)
		}
		sameMeta(t, "JSON-only vs binary", viaJSON, viaBin)
		if math.Float64bits(resJSON.Fitness) != math.Float64bits(resBin.Fitness) || resJSON.Iters != resBin.Iters {
			t.Fatalf("request %d: decoded metadata differs", i)
		}
	}
}

// TestWantsDPF2: only an Accept header naming application/octet-stream with
// a non-zero quality selects the binary form.
func TestWantsDPF2(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                         false,
		"application/json":         false,
		"*/*":                      false,
		"application/octet-stream": true,
		"application/octet-stream;q=0.5, application/json": true,
		"application/json, application/octet-stream":       true,
		"application/octet-stream;q=0":                     false,
		"application/octet-stream; q=0.000":                false,
		"application/octet-stream;q=bogus":                 false,
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/decompose", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		if got := wantsDPF2(r); got != want {
			t.Errorf("Accept %q: wantsDPF2 = %v, want %v", accept, got, want)
		}
	}
}

// TestJobResultUsesEngineBytes: the async path stores the Engine's DPF2
// bytes on a hit and on a miss alike, and serves them with their length.
func TestJobResultUsesEngineBytes(t *testing.T) {
	ts, _ := cachedServer(t)
	ctx := context.Background()
	info, err := ts.client.UploadTensor(ctx, testTensor(85))
	if err != nil {
		t.Fatal(err)
	}
	req := DecomposeRequest{TensorID: info.TensorID, Spec: SpecRequest{Rank: intp(3), MaxIters: intp(4)}}
	var want []byte
	for i := 0; i < 2; i++ { // a miss, then a hit
		job, err := ts.client.SubmitJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		job = waitJob(t, ts.client, job)
		res, err := ts.client.JobResult(ctx, job.JobID)
		if err != nil {
			t.Fatal(err)
		}
		got := resultBytes(t, res)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatal("job result on a hit differs from the miss")
		}
	}
	_, sync, err := ts.client.Decompose(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sync.ResultDPF2, want) {
		t.Fatal("job result differs from the synchronous reply")
	}
}
