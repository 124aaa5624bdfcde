package main

import (
	"strings"
	"testing"
)

// TestAllCoversEveryRegisteredExperiment pins the property the
// registry exists for: -experiment all runs every registered
// experiment, so no table or figure can silently fall out of the full
// sweep.
func TestAllCoversEveryRegisteredExperiment(t *testing.T) {
	specs := experiments()
	if len(specs) == 0 {
		t.Fatal("empty experiment registry")
	}
	all, err := selectSpecs("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(specs) {
		t.Fatalf("-experiment all selects %d of %d registered experiments", len(all), len(specs))
	}
	for i, s := range all {
		if s.name != specs[i].name {
			t.Fatalf("all[%d] = %q, registry[%d] = %q: order diverged", i, s.name, i, specs[i].name)
		}
	}
}

// TestRegistryEntriesAreWellFormed: unique selectable names, non-nil
// runners, and every paper table and figure resolves to one entry.
func TestRegistryEntriesAreWellFormed(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, s := range experiments() {
		if s.name == "" || s.run == nil || s.desc == "" {
			t.Fatalf("malformed registry entry %+v", s)
		}
		for _, n := range append([]string{s.name}, s.aliases...) {
			if seen[n] {
				t.Fatalf("experiment name %q registered twice", n)
			}
			seen[n] = true
		}
	}
	for _, want := range []string{
		"fig9", "fig10", "table1", "table2", "fig11", "fig12", "ablation",
	} {
		if !seen[want] {
			t.Errorf("experiment %q is not selectable", want)
		}
		got, err := selectSpecs(want)
		if err != nil || len(got) != 1 {
			t.Errorf("selectSpecs(%q): %d specs, err %v", want, len(got), err)
		}
	}
}

// TestSelectSpecsRejectsUnknown: a typo fails fast with the selectable
// names, instead of silently running nothing. So do the eight
// operational experiments retired in favour of benchmark/: they get
// the ordinary error, not a shim.
func TestSelectSpecsRejectsUnknown(t *testing.T) {
	for _, name := range []string{
		"figg9",
		"concurrency", "build", "update", "load", "shard", "obs", "codecs", "ingest",
	} {
		_, err := selectSpecs(name)
		if err == nil {
			t.Fatalf("unknown experiment %q accepted", name)
		}
		if !strings.Contains(err.Error(), "fig11") || !strings.Contains(err.Error(), "all") {
			t.Fatalf("error does not list selectable experiments: %v", err)
		}
	}
	if got := strings.Join(experimentNames(), " "); got != "all fig9 fig10 table1 table2 fig11 fig12 ablation" {
		t.Fatalf("selectable experiments are %q", got)
	}
}
