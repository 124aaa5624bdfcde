package coding

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"snode/internal/bitio"
)

func TestGammaRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 7, 8, 15, 16, 255, 256, 1 << 20, 1<<62 + 12345}
	w := bitio.NewWriter(0)
	for _, v := range vals {
		WriteGamma(w, v)
	}
	r := bitio.NewReader(w.Bytes(), w.BitLen())
	for i, want := range vals {
		got, err := ReadGamma(r)
		if err != nil {
			t.Fatalf("ReadGamma %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("gamma %d: got %d, want %d", i, got, want)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d bits", r.Remaining())
	}
}

func TestGammaLenMatchesEncoding(t *testing.T) {
	for _, v := range []uint64{1, 2, 3, 7, 8, 100, 1023, 1024, 1 << 40} {
		w := bitio.NewWriter(0)
		WriteGamma(w, v)
		if got, want := w.BitLen(), GammaLen(v); got != want {
			t.Errorf("GammaLen(%d) = %d, encoded %d bits", v, want, got)
		}
	}
}

func TestGammaZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WriteGamma(0) did not panic")
		}
	}()
	WriteGamma(bitio.NewWriter(0), 0)
}

func TestGamma0RoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 2, 100, 1 << 30}
	w := bitio.NewWriter(0)
	for _, v := range vals {
		WriteGamma0(w, v)
	}
	r := bitio.NewReader(w.Bytes(), w.BitLen())
	for i, want := range vals {
		got, err := ReadGamma0(r)
		if err != nil || got != want {
			t.Fatalf("gamma0 %d: got %d, %v; want %d", i, got, err, want)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 7, 8, 16, 255, 256, 1 << 20, 1<<63 - 1}
	w := bitio.NewWriter(0)
	for _, v := range vals {
		WriteDelta(w, v)
	}
	r := bitio.NewReader(w.Bytes(), w.BitLen())
	for i, want := range vals {
		got, err := ReadDelta(r)
		if err != nil {
			t.Fatalf("ReadDelta %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("delta %d: got %d, want %d", i, got, want)
		}
	}
}

func TestDeltaLenMatchesEncoding(t *testing.T) {
	for _, v := range []uint64{1, 2, 3, 7, 8, 100, 1023, 1024, 1 << 40} {
		w := bitio.NewWriter(0)
		WriteDelta(w, v)
		if got, want := w.BitLen(), DeltaLen(v); got != want {
			t.Errorf("DeltaLen(%d) = %d, encoded %d bits", v, want, got)
		}
	}
}

func TestDeltaShorterThanGammaForLargeValues(t *testing.T) {
	// Delta codes asymptotically beat gamma; check a representative value.
	v := uint64(1 << 30)
	if DeltaLen(v) >= GammaLen(v) {
		t.Fatalf("DeltaLen(%d)=%d not shorter than GammaLen=%d", v, DeltaLen(v), GammaLen(v))
	}
}

func TestMinimalBinaryRoundTrip(t *testing.T) {
	for _, bound := range []uint64{1, 2, 3, 4, 5, 7, 8, 9, 100, 1000} {
		w := bitio.NewWriter(0)
		for v := uint64(0); v < bound; v++ {
			WriteMinimalBinary(w, v, bound)
		}
		r := bitio.NewReader(w.Bytes(), w.BitLen())
		for v := uint64(0); v < bound; v++ {
			got, err := ReadMinimalBinary(r, bound)
			if err != nil {
				t.Fatalf("bound %d v %d: %v", bound, v, err)
			}
			if got != v {
				t.Fatalf("bound %d: got %d, want %d", bound, got, v)
			}
		}
	}
}

func TestMinimalBinaryLenMatchesEncoding(t *testing.T) {
	for _, bound := range []uint64{2, 3, 5, 6, 7, 9, 100} {
		for v := uint64(0); v < bound; v++ {
			w := bitio.NewWriter(0)
			WriteMinimalBinary(w, v, bound)
			if got, want := w.BitLen(), MinimalBinaryLen(v, bound); got != want {
				t.Errorf("bound %d v %d: len %d, encoded %d", bound, v, want, got)
			}
		}
	}
}

func TestQuickGammaDelta(t *testing.T) {
	f := func(raw []uint32) bool {
		w := bitio.NewWriter(0)
		for _, v := range raw {
			WriteGamma(w, uint64(v)+1)
			WriteDelta(w, uint64(v)+1)
		}
		r := bitio.NewReader(w.Bytes(), w.BitLen())
		for _, v := range raw {
			g, err := ReadGamma(r)
			if err != nil || g != uint64(v)+1 {
				return false
			}
			d, err := ReadDelta(r)
			if err != nil || d != uint64(v)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGapListRoundTrip(t *testing.T) {
	lists := [][]int32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{3, 10, 11, 400, 100000},
	}
	for _, bound := range []uint64{100001, 1 << 17, 1<<31 - 1} {
		for _, ids := range lists {
			w := bitio.NewWriter(0)
			WriteBoundedGapList(w, ids, bound)
			want := 0
			for i, v := range ids {
				if i == 0 {
					want += MinimalBinaryLen(uint64(v), bound)
				} else {
					want += GammaLen(uint64(v - ids[i-1]))
				}
			}
			if got := w.BitLen(); got != want {
				t.Errorf("bound %d: %v encoded in %d bits, its code lengths sum to %d", bound, ids, got, want)
			}
			r := bitio.NewReader(w.Bytes(), w.BitLen())
			out, err := ReadBoundedGapList(r, len(ids), bound, nil)
			if err != nil {
				t.Fatalf("ReadBoundedGapList(%v): %v", ids, err)
			}
			if !slices.Equal(out, ids) || r.Remaining() != 0 {
				t.Fatalf("bound %d: %v decoded as %v with %d bits left", bound, ids, out, r.Remaining())
			}
		}
	}
}

func TestGapListRejectsNonIncreasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing list did not panic")
		}
	}()
	WriteBoundedGapList(bitio.NewWriter(0), []int32{5, 5}, 10)
}

// TestStepGap pins the checked step at its edges: the last value below
// the bound is reached, the bound is not, and no 64-bit gap wraps the
// sum into range — from the start of a run, from inside it, and under
// the largest bound there is.
func TestStepGap(t *testing.T) {
	const maxI64 = 1<<63 - 1
	cases := []struct {
		last  int64
		gap   uint64
		bound int64
		want  int64
		ok    bool
	}{
		{-1, 1, 10, 0, true},
		{-1, 10, 10, 9, true},
		{-1, 11, 10, -1, false},
		{4, 5, 10, 9, true},
		{4, 6, 10, 4, false},
		{4, 0, 10, 4, false},
		{9, 1, 10, 9, false},
		{-1, 1, 0, -1, false},
		{4, 1 << 63, 10, 4, false},
		{4, 1<<64 - 1, 10, 4, false},     // int64(gap) == -1: would step back to 3
		{4, 1<<64 - 4, 10, 4, false},     // would land on 0
		{-1, 1 << 63, maxI64, -1, false}, // would wrap to maxI64
		{-1, maxI64, maxI64, maxI64 - 1, true},
		{maxI64 - 2, 1, maxI64, maxI64 - 1, true},
		{maxI64 - 1, 1, maxI64, maxI64 - 1, false},
	}
	for _, c := range cases {
		if got, ok := StepGap(c.last, c.gap, c.bound); got != c.want || ok != c.ok {
			t.Errorf("StepGap(%d, %d, %d) = %d, %v; want %d, %v", c.last, c.gap, c.bound, got, ok, c.want, c.ok)
		}
	}
}

func TestQuickGapList(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build a strictly increasing list from raw deltas.
		ids := make([]int32, 0, len(raw))
		cur := int32(rng.Intn(100))
		for _, d := range raw {
			ids = append(ids, cur)
			cur += int32(d%1000) + 1
		}
		// The tightest bound, so the last value sits right under it.
		bound := uint64(cur)
		w := bitio.NewWriter(0)
		WriteBoundedGapList(w, ids, bound)
		r := bitio.NewReader(w.Bytes(), w.BitLen())
		// The decoder appends: what dst held stays in front.
		out, err := ReadBoundedGapList(r, len(ids), bound, []int32{-7})
		return err == nil && out[0] == -7 && slices.Equal(out[1:], ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// readRLEBits decodes an n-bit vector through ReadRLERuns, setting the
// bits its runs cover.
func readRLEBits(r *bitio.Reader, n int) ([]bool, error) {
	runs, err := ReadRLERuns(r, n, nil)
	out := make([]bool, n)
	for k := 0; k+1 < len(runs); k += 2 {
		for i := runs[k]; i < runs[k+1]; i++ {
			out[i] = true
		}
	}
	return out, err
}

func TestRLEBitsRoundTrip(t *testing.T) {
	vecs := [][]bool{
		nil,
		{true},
		{false},
		{true, true, true},
		{true, false, true, false},
		{false, false, true, true, true, false},
	}
	for _, v := range vecs {
		w := bitio.NewWriter(0)
		WriteRLEBits(w, v)
		r := bitio.NewReader(w.Bytes(), w.BitLen())
		out, err := readRLEBits(r, len(v))
		if err != nil {
			t.Fatalf("ReadRLERuns(%v): %v", v, err)
		}
		if !slices.Equal(out, v) || r.Remaining() != 0 {
			t.Fatalf("vec %v decoded as %v with %d bits left", v, out, r.Remaining())
		}
	}
}

func TestRLEBitsCompressesLongRuns(t *testing.T) {
	v := make([]bool, 10000)
	for i := 5000; i < 10000; i++ {
		v[i] = true
	}
	w := bitio.NewWriter(0)
	WriteRLEBits(w, v)
	if l := w.BitLen(); l > 64 {
		t.Fatalf("two-run 10000-bit vector encoded in %d bits", l)
	}
}

func TestQuickRLEBits(t *testing.T) {
	f := func(raw []byte) bool {
		v := make([]bool, 0, len(raw)*3)
		for _, b := range raw {
			// Expand each byte into a short run to exercise run coding.
			val := b&1 == 1
			for j := 0; j < int(b%5)+1; j++ {
				v = append(v, val)
			}
		}
		w := bitio.NewWriter(0)
		WriteRLEBits(w, v)
		r := bitio.NewReader(w.Bytes(), w.BitLen())
		out, err := readRLEBits(r, len(v))
		return err == nil && slices.Equal(out, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A run that claims more bits than the vector has left is corruption,
// not a longer vector: nothing past n may be reported as set.
func TestRLERunsRejectOverlongRun(t *testing.T) {
	w := bitio.NewWriter(0)
	w.WriteBool(true)
	WriteGamma(w, 3)
	WriteGamma(w, 6) // 3 set, then 6 clear: one more than a 8-bit vector holds
	runs, err := ReadRLERuns(bitio.NewReader(w.Bytes(), w.BitLen()), 8, nil)
	if err != ErrBadCode || !slices.Equal(runs, []int32{0, 3}) {
		t.Fatalf("runs %v, %v; want the first run and ErrBadCode", runs, err)
	}
}
