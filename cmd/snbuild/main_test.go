package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"snode/internal/ingest"
	"snode/internal/snode"
)

// TestCheckCodec: the two codecs a build can use pass -codec's
// validation; the two removed ones are refused like any unknown name,
// with the accepted values and the removal in the message.
func TestCheckCodec(t *testing.T) {
	for _, name := range snode.CodecNames() {
		if err := checkCodec(name); err != nil {
			t.Errorf("-codec %s refused: %v", name, err)
		}
	}
	for _, name := range []string{"lz", "auto", "zstd", ""} {
		err := checkCodec(name)
		if err == nil {
			t.Errorf("-codec %q accepted", name)
			continue
		}
		for _, want := range []string{"-codec", snode.CodecPaper, snode.CodecLog, "lz and auto were removed"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-codec %q: error %q does not say %q", name, err, want)
			}
		}
	}
}

// TestValidate: one source (-pages or -ingest) passes; both, neither, a
// flag given without the source it belongs to, and a value that would
// fail the build later are refused by the flag's name.
func TestValidate(t *testing.T) {
	edges := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(edges, []byte("0\t1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := func() options {
		return options{out: "data", budget: 16 << 20, workers: 1, shards: 1, codec: snode.CodecPaper, format: ingest.FormatSNAP, pages: 1000, seed: 7}
	}
	if err := validate(good(), map[string]bool{"pages": true, "seed": true}); err != nil {
		t.Fatalf("-pages 1000 -seed 7 refused: %v", err)
	}
	ingested := good()
	ingested.pages, ingested.ingest, ingested.maxHeapMB = 0, edges, 64
	if err := validate(ingested, map[string]bool{"ingest": true, "format": true, "max-heap-mb": true}); err != nil {
		t.Fatalf("-ingest -format -max-heap-mb refused: %v", err)
	}
	for _, c := range []struct {
		name  string
		set   string // flags given, beyond -pages or -ingest
		edit  func(*options)
		wants string
	}{
		{"both sources", "", func(o *options) { o.ingest = edges }, "exactly one"},
		{"neither source", "", func(o *options) { o.pages = 0 }, "exactly one"},
		{"-seed without -pages", "seed", func(o *options) { o.pages, o.ingest = 0, edges }, "-seed requires -pages"},
		{"-format without -ingest", "format", func(*options) {}, "-format requires -ingest"},
		{"-max-heap-mb without -ingest", "max-heap-mb", func(o *options) { o.maxHeapMB = 64 }, "-max-heap-mb requires -ingest"},
		{"-shards 0", "", func(o *options) { o.shards = 0 }, "-shards must be >= 1"},
		{"unknown -codec", "", func(o *options) { o.codec = "zstd" }, `unknown -codec "zstd"`},
	} {
		o := good()
		c.edit(&o)
		set := map[string]bool{c.set: true}
		if o.pages > 0 {
			set["pages"] = true
		}
		if o.ingest != "" {
			set["ingest"] = true
		}
		if err := validate(o, set); err == nil || !strings.Contains(err.Error(), c.wants) {
			t.Errorf("%s: err = %v, want one saying %q", c.name, err, c.wants)
		}
	}
}
