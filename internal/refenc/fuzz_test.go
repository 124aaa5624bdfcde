package refenc

import (
	"testing"
	"testing/quick"

	"snode/internal/bitio"
	"snode/internal/randutil"
)

// Decoders must never panic on corrupt input — a damaged index file has
// to surface as an error, not take the repository down.

func decodeNoPanic(t *testing.T, buf []byte, m int, bound uint64) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("decoder panicked on %d-byte input (m=%d bound=%d): %v",
				len(buf), m, bound, r)
		}
	}()
	// The result does not matter; only that it returns.
	_, _ = DecodeListsBounded(bitio.NewByteReader(buf), m, bound)
}

func TestDecodeRandomBytesNoPanic(t *testing.T) {
	f := func(buf []byte, m uint8, bound uint16) bool {
		decodeNoPanic(t, buf, int(m%64), uint64(bound))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeBitFlippedStreams(t *testing.T) {
	// Encode real data, flip each byte in turn, decode.
	rng := randutil.NewRNG(99)
	lists := randomLists(rng, 12)
	for _, opt := range []Options{{Window: 8, TargetBound: testBound}, {Exact: true, TargetBound: testBound}, {Window: 8, TargetBound: 4096}} {
		w := bitio.NewWriter(0)
		if _, err := EncodeLists(w, lists, opt); err != nil {
			t.Fatal(err)
		}
		clean := w.Bytes()
		for i := range clean {
			buf := append([]byte(nil), clean...)
			buf[i] ^= 0xFF
			decodeNoPanic(t, buf, len(lists), opt.TargetBound)
		}
	}
}

func TestDecodeTruncatedStreams(t *testing.T) {
	rng := randutil.NewRNG(7)
	lists := randomLists(rng, 10)
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, lists, Options{Window: 8, TargetBound: testBound}); err != nil {
		t.Fatal(err)
	}
	clean := w.Bytes()
	for cut := 0; cut < len(clean); cut++ {
		decodeNoPanic(t, clean[:cut], len(lists), testBound)
	}
}

func TestDecodeWrongListCount(t *testing.T) {
	rng := randutil.NewRNG(13)
	lists := randomLists(rng, 8)
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, lists, Options{Window: 8, TargetBound: testBound}); err != nil {
		t.Fatal(err)
	}
	buf := w.Bytes()
	// Asking for more lists than encoded must error, not panic.
	decodeNoPanic(t, buf, 64, testBound)
	if _, err := DecodeListsBounded(bitio.NewByteReader(buf), 64, testBound); err == nil {
		t.Fatal("over-long decode succeeded")
	}
}

func TestDecodeWrongBound(t *testing.T) {
	rng := randutil.NewRNG(17)
	lists := randomLists(rng, 8)
	w := bitio.NewWriter(0)
	if _, err := EncodeLists(w, lists, Options{Window: 8, TargetBound: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	// Decoding with a different bound shifts the bit stream; it must
	// fail or mis-decode gracefully, never panic.
	decodeNoPanic(t, w.Bytes(), 8, 7)
	decodeNoPanic(t, w.Bytes(), 8, 0)
}
