package ingest

import (
	"math"
	"slices"
	"testing"

	"snode/internal/randutil"
)

// lookupTables are the shapes of compaction table the lookup has to be
// right on: the ones interpolation is exact or nearly exact for, the one
// it says nothing about, and the ones whose span or product crosses
// 64 bits.
func lookupTables() map[string][]uint64 {
	rng := randutil.NewRNG(24)
	seq := func(base uint64, n int, keep func(i int) bool) []uint64 {
		var t []uint64
		for i := 0; i < n; i++ {
			if keep == nil || keep(i) {
				t = append(t, base+uint64(i))
			}
		}
		return t
	}
	hashed := make([]uint64, 3000)
	for i := range hashed {
		hashed[i] = rng.Uint64()
	}
	slices.Sort(hashed)
	hashed = slices.Compact(hashed)
	return map[string][]uint64{
		"contiguous from 0":  seq(0, 5000, nil),
		"contiguous offset":  seq(916427, 4097, nil),
		"contiguous at top":  seq(math.MaxUint64-999, 1000, nil),
		"one hole":           seq(10, 3000, func(i int) bool { return i != 1777 }),
		"nearly dense":       seq(1, 20000, func(i int) bool { return rng.Intn(100) >= 5 }),
		"dense then far":     append(seq(0, 1000, nil), 1<<40, 1<<63+5, math.MaxUint64),
		"far then dense":     append([]uint64{0, 3}, seq(math.MaxUint64-2000, 1000, nil)...),
		"hashed 64-bit":      hashed,
		"single entry":       {42},
		"single zero":        {0},
		"single max":         {math.MaxUint64},
		"both ends":          {0, math.MaxUint64},
		"both ends and one":  {0, 1, math.MaxUint64},
		"pair":               {7, 9},
		"empty":              nil,
		"sparse multiples":   seq(0, 2000, func(i int) bool { return i%97 == 0 }),
		"above 2^63 stepped": {1<<63 + 5, 1<<63 + 1000003, 1<<63 + 2000006, math.MaxUint64 - 1},
	}
}

// checkLookup compares one probe with the standard library's search.
func checkLookup(t *testing.T, name string, table []uint64, raw uint64) {
	t.Helper()
	want, found := slices.BinarySearch(table, raw)
	got, ok := lookupDense(table, raw)
	if ok != found || (ok && got != want) {
		t.Fatalf("%s: lookupDense(%d) = %d, %v; binary search says %d, %v", name, raw, got, ok, want, found)
	}
}

// TestDenseLookupMatchesBinarySearch probes every table at each entry,
// either side of it, the middle of the gap above it, and both ends of
// the ID space.
func TestDenseLookupMatchesBinarySearch(t *testing.T) {
	for name, table := range lookupTables() {
		probes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
		for i, v := range table {
			probes = append(probes, v, v-1, v+1)
			if i+1 < len(table) {
				probes = append(probes, v+(table[i+1]-v)/2)
			}
		}
		for _, raw := range probes {
			checkLookup(t, name, table, raw)
		}
	}
}

// FuzzDenseLookup lets the fuzzer pick the table (a shape, a size, a
// base and a seed for its holes) and the probe. The 128-bit product and
// its division are what a wrong bound would break: a panic from
// bits.Div64 fails the target as surely as a wrong index.
func FuzzDenseLookup(f *testing.F) {
	f.Add(uint8(0), uint16(1000), uint64(0), uint64(1), uint64(500))
	f.Add(uint8(0), uint16(1000), uint64(math.MaxUint64-999), uint64(1), uint64(math.MaxUint64))
	f.Add(uint8(1), uint16(5000), uint64(916427), uint64(7), uint64(918000))
	f.Add(uint8(2), uint16(300), uint64(0), uint64(3), uint64(1<<63))
	f.Add(uint8(3), uint16(2), uint64(0), uint64(0), uint64(math.MaxUint64-1))
	f.Add(uint8(3), uint16(900), uint64(5), uint64(9), uint64(4))
	f.Add(uint8(1), uint16(1), uint64(42), uint64(0), uint64(42))
	f.Fuzz(func(t *testing.T, shape uint8, size uint16, base, seed, raw uint64) {
		rng := randutil.NewRNG(seed)
		var table []uint64
		for i := 0; i < int(size); i++ {
			var v uint64
			switch shape % 4 {
			case 0: // contiguous (wrapping at the top is sorted out below)
				v = base + uint64(i)
			case 1: // nearly dense
				v = base + uint64(i) + uint64(rng.Intn(3))*uint64(i)
			case 2: // hashed
				v = rng.Uint64()
			default: // dense, with the ends of the ID space thrown in
				v = base + uint64(i)
				if i%2 == 1 {
					v = math.MaxUint64 - uint64(i/2)*uint64(rng.Intn(2)+1)
				}
			}
			table = append(table, v)
		}
		slices.Sort(table)
		table = slices.Compact(table)
		checkLookup(t, "fuzzed", table, raw)
		if len(table) > 0 {
			at := table[int(raw%uint64(len(table)))]
			for _, p := range []uint64{at, at - 1, at + 1, table[0] - 1, table[len(table)-1] + 1} {
				checkLookup(t, "fuzzed", table, p)
			}
		}
	})
}
