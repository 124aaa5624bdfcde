package iosim

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// keysOldestFirst lists the pool's keys from the eviction end.
func keysOldestFirst[V any](c *LRU[V]) []int64 {
	var keys []int64
	for el := c.order.Back(); el != nil; el = el.Prev() {
		keys = append(keys, el.Value.(*lruEntry[V]).key)
	}
	return keys
}

// TestLRUTable drives the pool through both kinds of budget — bytes, and
// 1 an entry — and checks what it holds, oldest first, after every step.
func TestLRUTable(t *testing.T) {
	type step struct {
		op        string // "put", "get", "miss" (a get that must miss), "reset"
		key, cost int64  // cost is the new budget for "reset"
		want      []int64
		used      int64
	}
	for _, tc := range []struct {
		name   string
		budget int64
		steps  []step
	}{
		{"bytes", 100, []step{
			{"put", 1, 40, []int64{1}, 40},
			{"put", 2, 40, []int64{1, 2}, 80},
			{"get", 1, 0, []int64{2, 1}, 80},
			{"put", 3, 40, []int64{1, 3}, 80},  // evicts 2, the least recently used, not 1
			{"put", 4, 90, []int64{4}, 90},     // evicts until it fits: both go
			{"miss", 1, 0, []int64{4}, 90},     // a miss changes nothing
			{"put", 5, 10, []int64{4, 5}, 100}, // exactly the budget fits
			{"put", 6, 1, []int64{5, 6}, 11},   // one over evicts the oldest only
			{"put", 7, 500, []int64{7}, 500},   // larger than the budget: held alone
			{"put", 8, 1, []int64{8}, 1},       // and the first to go
			{"reset", 0, 100, nil, 0},          // same budget: empty, still 100
			{"put", 1, 60, []int64{1}, 60},
			{"put", 2, 60, []int64{2}, 60},
			{"reset", 0, 200, nil, 0}, // new budget: both fit now
			{"put", 1, 60, []int64{1}, 60},
			{"put", 2, 60, []int64{1, 2}, 120},
			{"miss", 3, 0, []int64{1, 2}, 120},
		}},
		{"frames", 2, []step{
			{"put", 10, 1, []int64{10}, 1},
			{"put", 11, 1, []int64{10, 11}, 2},
			{"put", 12, 1, []int64{11, 12}, 2},
			{"get", 11, 0, []int64{12, 11}, 2},
			{"put", 13, 1, []int64{11, 13}, 2},
			{"reset", 0, 1, nil, 0},
			{"put", 10, 1, []int64{10}, 1},
			{"put", 11, 1, []int64{11}, 1},
		}},
		{"no budget holds one entry", 0, []step{
			{"put", 1, 1, []int64{1}, 1},
			{"put", 2, 1, []int64{2}, 1},
			{"get", 2, 0, []int64{2}, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewLRU[string](tc.budget)
			for i, s := range tc.steps {
				switch s.op {
				case "put":
					c.Put(s.key, fmt.Sprint("v", s.key), s.cost)
				case "get", "miss":
					v, ok := c.Get(s.key)
					if ok != (s.op == "get") || ok && v != fmt.Sprint("v", s.key) {
						t.Fatalf("step %d: Get(%d) = %q, %v", i, s.key, v, ok)
					}
				case "reset":
					c.Reset(s.cost)
				}
				if got := keysOldestFirst(c); !reflect.DeepEqual(got, s.want) || c.used != s.used || len(c.byKey) != len(s.want) {
					t.Fatalf("step %d (%s %d): holds %v (used %d, %d indexed), want %v (used %d)",
						i, s.op, s.key, got, c.used, len(c.byKey), s.want, s.used)
				}
			}
		})
	}
}

// TestLRUReplaysTheBaselinesPools replays, per baseline, a key/cost
// sequence recorded from the pool it had to itself before this one
// (testdata/lru_*.trace, captured at commit a3ddb66 by a hook in
// pager.Page, link3's block and flatfile's chunk while 1,500 lookups ran
// under a 96 KiB budget) and asserts the same hit, miss and eviction, in
// order, at every access — which is what keeps table3.golden's seeks,
// bytes and loads where they were.
func TestLRUReplaysTheBaselinesPools(t *testing.T) {
	for _, name := range []string{"pager", "link3", "flatfile"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", "lru_"+name+".trace"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var c *LRU[struct{}]
			hits, evictions, line := 0, 0, 0
			for sc := bufio.NewScanner(f); sc.Scan(); {
				line++
				fields := strings.Fields(sc.Text())
				nums := make([]int64, 0, len(fields))
				for _, fl := range fields {
					if n, err := strconv.ParseInt(fl, 10, 64); err == nil {
						nums = append(nums, n)
					}
				}
				if fields[0] == "budget" {
					c = NewLRU[struct{}](nums[0])
					continue
				}
				key, cost, wantHit, wantEvicted := nums[0], nums[1], fields[2] == "hit", nums[2:]
				_, hit := c.Get(key)
				if hit != wantHit {
					t.Fatalf("line %d: key %d hit=%v, recorded %s", line, key, hit, fields[2])
				}
				if hit {
					hits++
					continue
				}
				before := keysOldestFirst(c)
				c.Put(key, struct{}{}, cost)
				var evicted []int64
				for _, k := range before {
					if _, held := c.byKey[k]; !held {
						evicted = append(evicted, k)
					}
				}
				if fmt.Sprint(evicted) != fmt.Sprint(wantEvicted) {
					t.Fatalf("line %d: key %d cost %d evicted %v, recorded %v", line, key, cost, evicted, wantEvicted)
				}
				evictions += len(evicted)
			}
			if hits == 0 || evictions == 0 {
				t.Fatalf("trace exercised %d hits and %d evictions", hits, evictions)
			}
		})
	}
}
