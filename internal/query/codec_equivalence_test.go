package query

import (
	"context"
	"testing"

	"snode/internal/repo"
	"snode/internal/snode"
	"snode/internal/synth"
)

// TestCodecQueryEquivalence is the cross-codec golden gate: all six
// Table 3 queries must return row-identical results regardless of
// which supernode payload codec the artifact was built with.
func TestCodecQueryEquivalence(t *testing.T) {
	crawl, err := synth.Generate(synth.DefaultConfig(1200))
	if err != nil {
		t.Fatal(err)
	}
	run := func(codec string) []*Result {
		opt := repo.DefaultOptions(t.TempDir())
		opt.Schemes = []string{repo.SchemeSNode}
		opt.Layout = crawl.Order
		opt.SNode.Codec = codec
		r, err := repo.Build(crawl.Corpus, opt)
		if err != nil {
			t.Fatalf("%s: build: %v", codec, err)
		}
		e, err := New(r, repo.SchemeSNode)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		res, err := e.RunAll(context.Background())
		if err != nil {
			t.Fatalf("%s: run: %v", codec, err)
		}
		return res
	}

	want := run(snode.CodecPaper)
	for _, codec := range []string{snode.CodecLog} {
		got := run(codec)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", codec, len(got), len(want))
		}
		for qi := range want {
			if len(got[qi].Rows) != len(want[qi].Rows) {
				t.Fatalf("%s query %d: %d rows, want %d",
					codec, want[qi].Query, len(got[qi].Rows), len(want[qi].Rows))
			}
			for ri := range want[qi].Rows {
				if got[qi].Rows[ri] != want[qi].Rows[ri] {
					t.Fatalf("%s query %d row %d: %+v != %+v",
						codec, want[qi].Query, ri, got[qi].Rows[ri], want[qi].Rows[ri])
				}
			}
		}
	}
}
