package trace

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		id      uint64
		sampled bool
	}{
		{1, true}, {1, false}, {12345678901234567, true}, {^uint64(0), true},
	}
	for _, c := range cases {
		v := FormatHeader(c.id, c.sampled)
		id, sampled, ok := ParseHeader(v)
		if !ok || id != c.id || sampled != c.sampled {
			t.Fatalf("round-trip %d/%v: got %d/%v/%v from %q", c.id, c.sampled, id, sampled, ok, v)
		}
	}
}

func TestParseHeaderRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"", ":", "1", "12", "abc:1", "1:2", "1:", ":1", "0:1", "-1:1", "1;1",
		"99999999999999999999999999:1", // overflows uint64
	} {
		if id, sampled, ok := ParseHeader(v); ok {
			t.Fatalf("ParseHeader(%q) accepted: id=%d sampled=%v", v, id, sampled)
		}
	}
}

// The untraced cross-process path — every shard request reads the
// propagation header, almost always absent — must not allocate. This
// is the trace-layer half of the check-overhead gate; internal/serve
// and internal/router assert the same for their wrappers.
func TestCrossProcessUntracedZeroAlloc(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "http://example/out?page=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink bool
	allocs := testing.AllocsPerRun(200, func() {
		_, sampled, ok := ParseHeader(req.Header.Get(HeaderTrace))
		sink = sampled || ok
	})
	if sink {
		t.Fatal("absent header parsed as present")
	}
	if allocs != 0 {
		t.Fatalf("header read+parse on the untraced path allocates %.1f/op, want 0", allocs)
	}
}

// Canonical header constants: http.Header.Set of the wire spelling and
// Get of the constant must meet, or propagation silently breaks.
func TestHeaderConstantsCanonical(t *testing.T) {
	h := http.Header{}
	h.Set("X-SNode-Trace", "7:1")
	if got := h.Get(HeaderTrace); got != "7:1" {
		t.Fatalf("Get(HeaderTrace) = %q after Set(X-SNode-Trace)", got)
	}
	h.Set("X-SNode-Trace-Id", "9")
	if got := h.Get(HeaderTraceID); got != "9" {
		t.Fatalf("Get(HeaderTraceID) = %q after Set(X-SNode-Trace-Id)", got)
	}
}

func TestStartLinkedForcesTraceWithSamplingDisabled(t *testing.T) {
	tr := New(Config{SampleEvery: 0}) // sampling off: StartRequest never traces
	if ctx, got := tr.StartRequest(context.Background(), "nav"); got != nil || Active(ctx) {
		t.Fatal("SampleEvery=0 sampled a request")
	}
	ctx, forced := tr.StartLinked(context.Background(), "nav", 42)
	if forced == nil || !Active(ctx) {
		t.Fatal("StartLinked did not trace with SampleEvery=0")
	}
	if forced.ParentID != 42 {
		t.Fatalf("ParentID = %d, want 42", forced.ParentID)
	}
	_, sp := Start(ctx, "serve.admission")
	sp.End()
	tr.Finish(forced)
	if got := tr.Get(forced.ID); got == nil {
		t.Fatal("forced trace not retained")
	}
	if s := forced.Summary(); s.ParentID != 42 || s.Spans != 2 {
		t.Fatalf("summary = %+v, want ParentID 42 and 2 spans", s)
	}
}

// Forced traces must not consume slots in the local 1-in-N rotation:
// with SampleEvery=3, two unsampled requests then a forced one must
// leave the very next local request as the third — and sampled.
func TestStartLinkedDoesNotPerturbSamplingRotation(t *testing.T) {
	tr := New(Config{SampleEvery: 3})
	for i := 0; i < 2; i++ {
		if _, got := tr.StartRequest(context.Background(), "nav"); got != nil {
			t.Fatalf("request %d sampled early", i+1)
		}
	}
	_, forced := tr.StartLinked(context.Background(), "nav", 7)
	if forced == nil {
		t.Fatal("StartLinked did not trace")
	}
	_, third := tr.StartRequest(context.Background(), "nav")
	if third == nil {
		t.Fatal("forced trace leaked into the 1-in-N rotation: third local request not sampled")
	}
	if third.ParentID != 0 {
		t.Fatalf("locally sampled trace has ParentID %d", third.ParentID)
	}
}

// An already-traced context must not start a nested trace: the engine's
// internal StartRequest composes into the serve-level forced trace.
func TestStartRequestComposesIntoActiveTrace(t *testing.T) {
	outer := New(Config{SampleEvery: 0})
	inner := New(Config{SampleEvery: 1})
	ctx, forced := outer.StartLinked(context.Background(), "nav", 5)
	if forced == nil {
		t.Fatal("StartLinked did not trace")
	}
	ctx2, nested := inner.StartRequest(ctx, "nav")
	if nested != nil {
		t.Fatal("StartRequest started a nested trace inside an active one")
	}
	if FromContext(ctx2) != forced {
		t.Fatal("context lost the outer trace")
	}
	_, forced2 := inner.StartLinked(ctx, "nav", 6)
	if forced2 != nil {
		t.Fatal("StartLinked started a nested trace inside an active one")
	}
}

func TestAttachRemoteExports(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	ctx, root := tr.StartRequest(context.Background(), "router.mining")
	_, sp := Start(ctx, "router.fanout")
	sp.End()
	tr.Finish(root)
	root.AttachRemote(Remote{
		Label:   "shard0 http://127.0.0.1:1",
		TraceID: 31,
		Start:   root.Start.Add(time.Millisecond),
		Root: &SpanJSON{Name: "nav", DurNs: int64(2 * time.Millisecond), Children: []*SpanJSON{
			{Name: "cache.decode", StartNs: int64(time.Millisecond), DurNs: int64(time.Millisecond),
				Attrs: map[string]int64{"bytes": 128}},
		}},
		Counters: map[string]int64{"decodes": 1},
	})

	j := root.JSON()
	if len(j.Remotes) != 1 || j.Remotes[0].TraceID != 31 {
		t.Fatalf("JSON remotes = %+v", j.Remotes)
	}
	if s := root.Summary(); s.Remotes != 1 {
		t.Fatalf("summary remotes = %d, want 1", s.Remotes)
	}

	var text strings.Builder
	root.Render(&text)
	for _, want := range []string{"remote shard0", "cache.decode", "bytes=128"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("Render missing %q:\n%s", want, text.String())
		}
	}

	var chrome strings.Builder
	if err := WriteChromeTrace(&chrome, root); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"process_name", "shard0 http://127.0.0.1:1", "router trace", "cache.decode", "router.fanout"} {
		if !strings.Contains(chrome.String(), want) {
			t.Fatalf("chrome export missing %q:\n%s", want, chrome.String())
		}
	}

	// A span still open at export time is marked (open) where it was
	// recorded and again once its trace's JSON is stitched elsewhere.
	shardCtx, shard := tr.StartRequest(context.Background(), "nav")
	Start(shardCtx, "snode.read_span") // never ended
	tr.Finish(shard)
	var local strings.Builder
	shard.Render(&local)
	if !strings.Contains(local.String(), "(open)") {
		t.Fatalf("local Render lost the open marker:\n%s", local.String())
	}
	sj := shard.JSON()
	_, router := tr.StartRequest(context.Background(), "router.nav")
	tr.Finish(router)
	router.AttachRemote(Remote{Label: "shard1", TraceID: sj.ID, Start: sj.Start, Root: sj.Root})
	var stitched strings.Builder
	router.Render(&stitched)
	_, remote, _ := strings.Cut(stitched.String(), "remote shard1")
	if !strings.Contains(remote, "snode.read_span") || !strings.Contains(remote, "(open)") {
		t.Fatalf("stitched remote lost the open marker:\n%s", stitched.String())
	}
}
