// Package dataio persists irregular tensors and PARAFAC2 factorizations.
//
// The binary format is a small custom container (magic + version + shape
// table + little-endian float64 payload) rather than encoding/gob: tensors
// are large, flat float64 arrays, and a fixed layout reads and writes at
// memory bandwidth, stays stable across Go versions, and is easy to parse
// from other languages.
//
// Layout (all integers little-endian uint64, all floats IEEE-754 binary64):
//
//	"DPT2" | version=1 | K | J | I_1..I_K | slice_1 .. slice_K     (tensor)
//	"DPF2" | version=2 | qform | K | J | R | I_1..I_K |
//	       H (R·R) | V (J·R) | S (K·R) | Q payload                 (result)
//
// The result's Q payload depends on qform: qformDense (0) stores the dense
// Q_k (I_k·R each); qformFactored (1) stores the factored form DPar2 results
// carry — Z_1..Z_K, P_1..P_K (R·R each), then A_1..A_K (I_k·R each) with
// Q_k = A_k Z_k P_kᵀ — preserving laziness (and the smaller A-plus-R×R
// footprint) across a save/load. Version-1 result files (the pre-factored
// dense layout, without the qform field) are still read.
//
// Both writers append a sha256 checksum trailer (see internal/state) after
// the payload, and both readers verify it: silent corruption surfaces as a
// *CorruptError instead of garbage factors. Files written before the trailer
// existed — payload ending exactly at EOF — are still accepted. SaveTensor
// and SaveResult replace their target atomically (write-temp, fsync, rename),
// so a crash mid-save never leaves a truncated file behind; see
// docs/DURABILITY.md for the full contract.
package dataio

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/mat"
	"repro/internal/parafac2"
	"repro/internal/state"
	"repro/internal/tensor"
)

const (
	tensorMagic   = "DPT2"
	resultMagic   = "DPF2"
	tensorVersion = 1
	// resultVersion 2 added the qform field and the factored-Q payload;
	// ReadResult still accepts version-1 (dense-only) files.
	resultVersion = 2

	qformDense    = 0
	qformFactored = 1

	// maxDim guards against corrupt headers allocating absurd buffers.
	maxDim = 1 << 32
	// maxElems bounds any single matrix's element count, keeping the
	// rows-times-cols product far from integer overflow.
	maxElems = 1 << 40
)

// CorruptError reports a payload that could not be decoded: truncated,
// bit-flipped, failing its checksum, or structurally inconsistent. All decode
// failures from ReadTensor/ReadResult (and the Load* wrappers) are
// *CorruptError; errors.Is(err, state.ErrChecksum) additionally identifies
// checksum-trailer mismatches.
type CorruptError struct {
	What string // which file kind / field was being decoded
	Err  error  // underlying cause, possibly nil
}

func (e *CorruptError) Error() string {
	if e.Err == nil {
		return "dataio: corrupt " + e.What
	}
	return "dataio: corrupt " + e.What + ": " + e.Err.Error()
}

func (e *CorruptError) Unwrap() error { return e.Err }

func corrupt(what string, err error) error {
	return &CorruptError{What: what, Err: err}
}

func corruptf(format string, args ...any) error {
	return &CorruptError{What: fmt.Sprintf(format, args...)}
}

// WriteTensor serializes t to w, followed by a checksum trailer.
func WriteTensor(w io.Writer, t *tensor.Irregular) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	if _, err := sw.Write([]byte(tensorMagic)); err != nil {
		return err
	}
	if err := writeUints(sw, tensorHeader(t)); err != nil {
		return err
	}
	for _, s := range t.Slices {
		if err := writeFloats(sw, s.Data); err != nil {
			return err
		}
	}
	if err := sw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// tensorHeader is the DPT2 header that follows the magic: version, K, J,
// then the slice heights I_1..I_K.
func tensorHeader(t *tensor.Irregular) []uint64 {
	header := []uint64{tensorVersion, uint64(t.K()), uint64(t.J)}
	for _, s := range t.Slices {
		header = append(header, uint64(s.Rows))
	}
	return header
}

// TensorDigest is the module's one tensor identity: the sha256 of t's
// canonical DPT2 payload — magic, header, then every entry's little-endian
// float bits — exactly the bytes WriteTensor writes before its checksum
// trailer, hashed in a single pass through one reused chunk buffer. Tensors
// that decode from different byte streams but hold the same shape and bits
// share a digest; any change of shape or of a single bit (−0 vs +0, one NaN
// payload vs another) changes it.
func TensorDigest(t *tensor.Irregular) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(tensorMagic))
	_ = writeUints(h, tensorHeader(t)) // hash.Hash.Write never fails
	buf := make([]byte, 8*floatChunk)
	for _, s := range t.Slices {
		for data := s.Data; len(data) > 0; {
			n := min(len(data), floatChunk)
			for i, v := range data[:n] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
			h.Write(buf[:8*n])
			data = data[n:]
		}
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// ReadTensor deserializes a tensor written by WriteTensor, verifying the
// checksum trailer when present (legacy files without one are accepted).
// Decode failures are reported as *CorruptError.
func ReadTensor(r io.Reader) (*tensor.Irregular, error) {
	sr := state.NewSumReader(buffered(r))
	fr := floatReader{r: sr}
	if err := expectMagic(sr, tensorMagic); err != nil {
		return nil, err
	}
	head, err := readUints(sr, 3)
	if err != nil {
		return nil, corrupt("tensor header", err)
	}
	if head[0] != tensorVersion {
		return nil, corruptf("tensor: unsupported version %d", head[0])
	}
	k, j := head[1], head[2]
	if k == 0 || j == 0 || k > maxDim || j > maxDim {
		return nil, corruptf("tensor header (K=%d, J=%d)", k, j)
	}
	rows, err := readUints(sr, int(k))
	if err != nil {
		return nil, corrupt("tensor shape table", err)
	}
	slices := make([]*mat.Dense, k)
	for i := range slices {
		ik := rows[i]
		if ik == 0 || ik > maxDim || ik > maxElems/j {
			return nil, corruptf("tensor slice height %d", ik)
		}
		data, err := fr.read(ik * j)
		if err != nil {
			return nil, corrupt("tensor slice payload", err)
		}
		slices[i] = mat.NewFromData(int(ik), int(j), data)
	}
	if err := verifyTrailer(sr, "tensor"); err != nil {
		return nil, err
	}
	t, err := tensor.NewIrregular(slices)
	if err != nil {
		return nil, corrupt("tensor", err)
	}
	return t, nil
}

// SaveTensor writes t to the named file atomically: the payload lands in a
// temp file that is fsynced and renamed over path, so a crash mid-save leaves
// the previous file (or no file) intact, never a truncated one.
func SaveTensor(path string, t *tensor.Irregular) error {
	return state.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteTensor(w, t)
	})
}

// LoadTensor reads a tensor from the named file.
func LoadTensor(path string) (*tensor.Irregular, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTensor(f)
}

// WriteResult serializes the factor matrices of a decomposition, followed by
// a checksum trailer. A factored result (DPar2's lazy Q_k = A_k Z_k P_kᵀ) is
// written in factored form — the compact representation round-trips without
// ever materializing the dense slices; eager results are written dense.
func WriteResult(w io.Writer, res *parafac2.Result) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	sw := state.NewSumWriter(bw)
	if _, err := sw.Write([]byte(resultMagic)); err != nil {
		return err
	}
	k := res.K()
	r := res.H.Rows
	j := res.V.Rows
	a, z, p, factored := res.FactoredQ()
	if !res.Factored() {
		factored = false // dense cache present: write the eager form
	}
	qform := uint64(qformDense)
	if factored {
		qform = qformFactored
	}
	header := []uint64{resultVersion, qform, uint64(k), uint64(j), uint64(r)}
	for i := 0; i < k; i++ {
		header = append(header, uint64(res.SliceRows(i)))
	}
	if err := writeUints(sw, header); err != nil {
		return err
	}
	if err := writeFloats(sw, res.H.Data); err != nil {
		return err
	}
	if err := writeFloats(sw, res.V.Data); err != nil {
		return err
	}
	for _, s := range res.S {
		if err := writeFloats(sw, s); err != nil {
			return err
		}
	}
	if factored {
		for _, m := range z {
			if err := writeFloats(sw, m.Data); err != nil {
				return err
			}
		}
		for _, m := range p {
			if err := writeFloats(sw, m.Data); err != nil {
				return err
			}
		}
		for _, m := range a {
			if err := writeFloats(sw, m.Data); err != nil {
				return err
			}
		}
	} else {
		for i := 0; i < k; i++ {
			if err := writeFloats(sw, res.Qk(i).Data); err != nil {
				return err
			}
		}
	}
	if err := sw.WriteTrailer(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadResult deserializes factor matrices written by WriteResult, verifying
// the checksum trailer when present (legacy files without one are accepted).
// Only the factors are restored (timings and fitness are run artifacts, not
// state — FitnessKind on a loaded result is FitnessUnset). A factored payload
// is restored in factored form: the loaded result materializes Q_k lazily,
// exactly like the result it was saved from. Decode failures are reported as
// *CorruptError.
func ReadResult(r io.Reader) (*parafac2.Result, error) {
	sr := state.NewSumReader(buffered(r))
	fr := floatReader{r: sr}
	if err := expectMagic(sr, resultMagic); err != nil {
		return nil, err
	}
	ver, err := readUints(sr, 1)
	if err != nil {
		return nil, corrupt("result header", err)
	}
	qform := uint64(qformDense)
	switch ver[0] {
	case 1:
		// Pre-factored layout: no qform field, dense payload.
	case resultVersion:
		qf, err := readUints(sr, 1)
		if err != nil {
			return nil, corrupt("result header", err)
		}
		qform = qf[0]
		if qform != qformDense && qform != qformFactored {
			return nil, corruptf("result: unknown Q form %d", qform)
		}
	default:
		return nil, corruptf("result: unsupported version %d", ver[0])
	}
	head, err := readUints(sr, 3)
	if err != nil {
		return nil, corrupt("result header", err)
	}
	k, j, rank := head[0], head[1], head[2]
	if k == 0 || j == 0 || rank == 0 || k > maxDim || j > maxDim || rank > maxDim ||
		rank > maxElems/rank || j > maxElems/rank {
		return nil, corruptf("result header (K=%d, J=%d, R=%d)", k, j, rank)
	}
	rows, err := readUints(sr, int(k))
	if err != nil {
		return nil, corrupt("result shape table", err)
	}
	for _, ik := range rows {
		if ik == 0 || ik > maxDim || ik > maxElems/rank {
			return nil, corruptf("result Q height %d", ik)
		}
	}
	res := &parafac2.Result{}
	hdata, err := fr.read(rank * rank)
	if err != nil {
		return nil, corrupt("result H payload", err)
	}
	res.H = mat.NewFromData(int(rank), int(rank), hdata)
	vdata, err := fr.read(j * rank)
	if err != nil {
		return nil, corrupt("result V payload", err)
	}
	res.V = mat.NewFromData(int(j), int(rank), vdata)
	res.S = make([][]float64, k)
	for i := range res.S {
		s, err := fr.read(rank)
		if err != nil {
			return nil, corrupt("result S payload", err)
		}
		res.S[i] = s
	}
	readBlocks := func(what string, heights func(i int) uint64) ([]*mat.Dense, error) {
		ms := make([]*mat.Dense, k)
		for i := range ms {
			h := heights(i)
			data, err := fr.read(h * rank)
			if err != nil {
				return nil, corrupt(what, err)
			}
			ms[i] = mat.NewFromData(int(h), int(rank), data)
		}
		return ms, nil
	}
	if qform == qformFactored {
		z, err := readBlocks("result Z payload", func(int) uint64 { return rank })
		if err != nil {
			return nil, err
		}
		p, err := readBlocks("result P payload", func(int) uint64 { return rank })
		if err != nil {
			return nil, err
		}
		a, err := readBlocks("result A payload", func(i int) uint64 { return rows[i] })
		if err != nil {
			return nil, err
		}
		if err := verifyTrailer(sr, "result"); err != nil {
			return nil, err
		}
		res.SetFactoredQ(a, z, p)
		return res, nil
	}
	q, err := readBlocks("result Q payload", func(i int) uint64 { return rows[i] })
	if err != nil {
		return nil, err
	}
	if err := verifyTrailer(sr, "result"); err != nil {
		return nil, err
	}
	res.SetQ(q)
	return res, nil
}

// SaveResult writes the factorization to the named file atomically (see
// SaveTensor for the crash-safety contract).
func SaveResult(path string, res *parafac2.Result) error {
	return state.WriteFileAtomic(path, func(w io.Writer) error {
		return WriteResult(w, res)
	})
}

// LoadResult reads a factorization from the named file.
func LoadResult(path string) (*parafac2.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadResult(f)
}

// WriteMatrixCSV writes m as comma-separated rows — the interchange format
// cmd/dpar2 accepts back via -input.
func WriteMatrixCSV(w io.Writer, m *mat.Dense) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for jj, v := range row {
			if jj > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%.17g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// --- low-level helpers -----------------------------------------------------

// verifyTrailer checks the checksum trailer that follows the payload.
// A cleanly absent trailer (state.ErrNoTrailer) means a legacy pre-checksum
// file and is accepted; anything else wraps into a *CorruptError.
func verifyTrailer(sr *state.SumReader, what string) error {
	switch err := sr.VerifyTrailer(); {
	case err == nil, errors.Is(err, state.ErrNoTrailer):
		return nil
	default:
		return corrupt(what+" checksum", err)
	}
}

func expectMagic(r io.Reader, magic string) error {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return corrupt("magic", err)
	}
	if string(buf) != magic {
		return corruptf("magic %q (want %q)", buf, magic)
	}
	return nil
}

func writeUints(w io.Writer, vals []uint64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	_, err := w.Write(buf)
	return err
}

// uintChunk bounds per-step allocation when reading integer tables whose
// length comes from an untrusted header.
const uintChunk = 1 << 13

// readUints reads n little-endian uint64s, allocating incrementally so a
// huge claimed n against a truncated stream fails after at most one chunk of
// over-allocation instead of reserving n words up front.
func readUints(r io.Reader, n int) ([]uint64, error) {
	out := make([]uint64, 0, min(n, uintChunk))
	buf := make([]byte, 8*min(n, uintChunk))
	for len(out) < n {
		cnt := min(n-len(out), uintChunk)
		if _, err := io.ReadFull(r, buf[:cnt*8]); err != nil {
			return nil, fmt.Errorf("short read: %w", err)
		}
		for i := 0; i < cnt; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[i*8:]))
		}
	}
	return out, nil
}

const floatChunk = 1 << 16

func writeFloats(w io.Writer, vals []float64) error {
	buf := make([]byte, 8*min(len(vals), floatChunk))
	for off := 0; off < len(vals); off += floatChunk {
		end := min(off+floatChunk, len(vals))
		n := end - off
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(vals[off+i]))
		}
		if _, err := w.Write(buf[:n*8]); err != nil {
			return err
		}
	}
	return nil
}

// buffered wraps a reader in the decoders' 1 MiB read buffer, unless it
// already holds its bytes in memory, where the buffer would only add a copy.
func buffered(r io.Reader) io.Reader {
	if _, ok := r.(*bytes.Reader); ok {
		return r
	}
	return bufio.NewReaderSize(r, 1<<20)
}

// floatReader decodes float64 payloads through one byte buffer reused across
// reads, so a decode allocates its results plus at most one chunk.
type floatReader struct {
	r   io.Reader
	buf []byte
}

// read reads n little-endian float64s into a freshly allocated slice. Like
// readUints it allocates as data actually arrives, so an adversarial header
// claiming billions of elements against a short stream costs at most ~2× the
// bytes genuinely present (append doubling) plus one chunk, not 8·n bytes up
// front.
func (f *floatReader) read(n uint64) ([]float64, error) {
	if n > maxElems {
		return nil, fmt.Errorf("element count %d exceeds limit", n)
	}
	out := make([]float64, 0, min(int(n), floatChunk))
	if want := 8 * min(int(n), floatChunk); len(f.buf) < want {
		f.buf = make([]byte, want)
	}
	for uint64(len(out)) < n {
		cnt := min(int(n-uint64(len(out))), floatChunk)
		if _, err := io.ReadFull(f.r, f.buf[:cnt*8]); err != nil {
			return nil, fmt.Errorf("short read: %w", err)
		}
		for i := 0; i < cnt; i++ {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(f.buf[i*8:])))
		}
	}
	return out, nil
}
