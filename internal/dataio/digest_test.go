package dataio

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/state"
	"repro/internal/tensor"
)

// deepCopy returns a tensor with the same shape and bits but no shared
// backing arrays.
func deepCopy(t *tensor.Irregular) *tensor.Irregular {
	slices := make([]*mat.Dense, t.K())
	for k, s := range t.Slices {
		slices[k] = mat.NewFromData(s.Rows, s.Cols, append([]float64(nil), s.Data...))
	}
	return tensor.MustIrregular(slices)
}

// irregular builds a tensor of width j from flat data cut at the given
// slice heights.
func irregular(j int, heights []int, data []float64) *tensor.Irregular {
	slices := make([]*mat.Dense, len(heights))
	off := 0
	for k, h := range heights {
		slices[k] = mat.NewFromData(h, j, append([]float64(nil), data[off:off+h*j]...))
		off += h * j
	}
	return tensor.MustIrregular(slices)
}

// TestTensorDigestFraming pins the digest's identity rules: the same shape
// and bits give the same digest however the tensor was obtained, and every
// framing or bit-level difference gives a different one.
func TestTensorDigestFraming(t *testing.T) {
	base := sampleTensor()
	var buf bytes.Buffer
	if err := WriteTensor(&buf, base); err != nil {
		t.Fatal(err)
	}
	roundTripped, err := ReadTensor(&buf)
	if err != nil {
		t.Fatal(err)
	}

	flat := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	withBits := func(bits uint64) *tensor.Irregular {
		return tensor.MustIrregular([]*mat.Dense{mat.NewFromData(1, 2, []float64{1, math.Float64frombits(bits)})})
	}
	cases := []struct {
		name  string
		a, b  *tensor.Irregular
		equal bool
	}{
		{"write-read round trip", base, roundTripped, true},
		{"deep copy", base, deepCopy(base), true},
		{"same data, different slice heights", irregular(2, []int{2, 4}, flat), irregular(2, []int{4, 2}, flat), false},
		{"+0 vs -0", withBits(0), withBits(math.Float64bits(math.Copysign(0, -1))), false},
		{"different NaN payloads", withBits(0x7ff8000000000001), withBits(0x7ff8000000000002), false},
		{"same data, different J", irregular(2, []int{6}, flat), irregular(3, []int{4}, flat), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := TensorDigest(tc.a) == TensorDigest(tc.b); got != tc.equal {
				t.Fatalf("digests equal = %v, want %v", got, tc.equal)
			}
		})
	}
}

// TestTensorDigestIsCanonicalPayload: the digest is the sha256 of exactly
// the bytes WriteTensor emits before its checksum trailer, also for a
// shape table longer than one chunk and for slices spanning several chunks.
func TestTensorDigestIsCanonicalPayload(t *testing.T) {
	manySlices := make([]*mat.Dense, floatChunk+7)
	for k := range manySlices {
		manySlices[k] = mat.NewFromData(1, 1, []float64{float64(k)})
	}
	tall := make([]float64, 3*floatChunk+5)
	for i := range tall {
		tall[i] = float64(i) * 0.5
	}
	for name, ten := range map[string]*tensor.Irregular{
		"sample":             sampleTensor(),
		"many slices":        tensor.MustIrregular(manySlices),
		"multi-chunk slices": irregular(5, []int{len(tall) / 5 / 2, len(tall)/5 - len(tall)/5/2}, tall),
	} {
		var buf bytes.Buffer
		if err := WriteTensor(&buf, ten); err != nil {
			t.Fatal(err)
		}
		payload := buf.Bytes()[:buf.Len()-state.TrailerSize]
		if got, want := TensorDigest(ten), sha256.Sum256(payload); got != want {
			t.Fatalf("%s: TensorDigest %x != sha256(payload) %x", name, got, want)
		}
	}
}
