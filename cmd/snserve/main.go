// Command snserve serves one shard of a dataset directory written by
// snbuild: it opens the shard (shard.OpenServing), wires it into a
// serve.Replica and answers over HTTP until SIGINT/SIGTERM. A dataset
// built without -shards has one shard holding the whole graph, and
// -shard-id may be left out; one built with -shards K takes one snserve
// per shard, fronted by snrouter:
//
//	snbuild -pages 50000 -out ./data
//	snserve -data ./data -listen :8080
//	snserve -data ./shards -shard-id 0 -listen :8081
//
// Every replica, the one-shard kind included, stamps X-SNode-Shard and
// X-SNode-Shard-Version on its responses (the router rejects a replica
// whose manifest version differs from its own), answers
// /query?partial=1 with untruncated group-tagged rows for the router
// to merge — one binary frame (Content-Type application/x-snode-partial,
// read by serve.DecodePartial), not JSON — and answers /out with the
// edges its shard holds — the router appends the cross-shard rest from
// the boundary files.
//
//	/out           ?page=N: one page's out-adjacency (navigation class)
//	/query         ?q=1..6: one Table 3 analysis (mining class); both
//	               take &deadline_ms=D
//	/update        with -live: POST a JSON array of {"src":N,"dst":M,
//	               "op":"add"|"remove"}, applied to the forward overlay
//	               and mirrored into the reverse one
//	/healthz       200 {"status":"ready"}, 503 {"status":"draining"}
//	               once shutdown has begun
//	/metrics       text exposition of the one registry: query latency
//	               histograms with trace-ID exemplars, cache, iosim,
//	               admission and delta counters
//	/metrics.json  the same as a JSON snapshot, the mergeable scrape
//	               format snrouter's /cluster/metrics federates
//	/debug/traces  retained traces; ?id=N for one span tree
//	               (&format=chrome or text)
//	/debug/vars, /debug/pprof  expvar and net/http/pprof
//
// -pace stalls every disk read for its modeled 2002-disk cost times the
// scale, so concurrent requests overlap real I/O waits. -max-concurrent,
// -max-queue and -deadline size the admission layer in front of /out
// and /query (internal/serve: nav before mining, 429 + Retry-After past
// a full queue or an unmeetable deadline, the deadline propagated into
// the paced reader). -trace-every samples 1 in N requests into span
// trees, the slowest -trace-slow per class retained; the tracer is
// attached whatever it says — 0 only stops local sampling, and a request
// carrying the router's sampled X-SNode-Trace header is still traced
// and answered with X-SNode-Trace-Id for the router to stitch.
//
// -live, accepted on a one-shard dataset only (an update applied to one
// shard of several would bypass the partition), wraps the two stores in
// delta overlays (internal/delta) with a background compactor each.
//
// SIGINT/SIGTERM triggers a graceful shutdown: /healthz flips to
// draining, the listener stops accepting, in-flight requests drain
// under -drain, the compactors stop and the delta memtables are sealed
// into segments. The segments live in a scratch directory removed at
// exit and nothing replays them: a restarted -live server starts from
// the built base, without the updates the last one accepted. Durable
// updates are ROADMAP's write-ahead-log item.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"snode/internal/iosim"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/trace"
)

// options are the serving parameters; the flags fill the admission and
// tracer settings into the configs that carry them.
type options struct {
	data    string
	shardID int
	listen  string
	live    bool
	budget  int64
	pace    float64
	drain   time.Duration
	trace   trace.Config // SampleEvery, SlowPerClass
	serve   serve.Config // MaxConcurrent, MaxQueue, DefaultDeadline
}

// validate rejects flag values that would otherwise fail obscurely
// downstream (a non-positive budget floors every cache shard; a
// negative pace is meaningless).
func validate(o *options) error {
	switch {
	case o.data == "":
		return fmt.Errorf("-data is required: the dataset directory snbuild wrote (it holds manifest.json)")
	case o.listen == "":
		return fmt.Errorf("-listen is required: snserve answers over HTTP and nothing else")
	case o.shardID < -1:
		return fmt.Errorf("-shard-id must be >= 0 (got %d)", o.shardID)
	case o.budget <= 0:
		return fmt.Errorf("-budget must be positive bytes (got %d)", o.budget)
	case o.pace < 0:
		return fmt.Errorf("-pace must be >= 0 (got %g)", o.pace)
	case o.trace.SampleEvery < 0:
		return fmt.Errorf("-trace-every must be >= 0 (got %d; 0 disables local sampling)", o.trace.SampleEvery)
	case o.trace.SlowPerClass < 1:
		return fmt.Errorf("-trace-slow must be >= 1 (got %d)", o.trace.SlowPerClass)
	case o.drain <= 0:
		return fmt.Errorf("-drain must be a positive duration (got %v)", o.drain)
	case o.serve.MaxConcurrent < 0:
		return fmt.Errorf("-max-concurrent must be >= 0 (got %d; 0 selects GOMAXPROCS)", o.serve.MaxConcurrent)
	case o.serve.MaxQueue < 1:
		return fmt.Errorf("-max-queue must be >= 1 (got %d): the admission queue needs at least one seat", o.serve.MaxQueue)
	case o.serve.DefaultDeadline < 0:
		return fmt.Errorf("-deadline must be >= 0 (got %v; 0 means no default deadline)", o.serve.DefaultDeadline)
	}
	return nil
}

func main() {
	o := &options{}
	flag.StringVar(&o.data, "data", "", "dataset directory written by snbuild (holds manifest.json; required)")
	flag.IntVar(&o.shardID, "shard-id", -1, "which shard of -data to serve (default: the only shard of a one-shard dataset)")
	flag.StringVar(&o.listen, "listen", "", "address to serve on (e.g. :8080; required)")
	flag.BoolVar(&o.live, "live", false, "wrap the stores in delta overlays and accept POST /update mutations while serving (one-shard datasets only)")
	flag.Int64Var(&o.budget, "budget", 1<<20, "buffer-manager budget in bytes")
	flag.Float64Var(&o.pace, "pace", 1.0, "disk-stall scale (0 disables pacing)")
	flag.IntVar(&o.trace.SampleEvery, "trace-every", 64, "trace 1 in N requests (0 disables local sampling; router-sampled requests are still traced)")
	flag.IntVar(&o.trace.SlowPerClass, "trace-slow", 4, "retain the N slowest traces per query class")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
	flag.IntVar(&o.serve.MaxConcurrent, "max-concurrent", 0, "admission slots for /out and /query (0 = GOMAXPROCS)")
	flag.IntVar(&o.serve.MaxQueue, "max-queue", 64, "bounded admission queue per request class; arrivals past it are shed with 429")
	flag.DurationVar(&o.serve.DefaultDeadline, "deadline", 0, "default deadline for /out and /query requests (0 = none; ?deadline_ms overrides)")
	flag.Parse()

	err := validate(o)
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snserve: %v\n", err)
		os.Exit(1)
	}
}

// run opens the shard, wires it into a serve.Replica, and serves until
// SIGINT/SIGTERM, then runs the replica's exit sequence.
func run(o *options) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	m, err := shard.LoadManifest(o.data)
	if err != nil {
		return err
	}
	id := o.shardID
	if id < 0 {
		if m.NumShards != 1 {
			return fmt.Errorf("-shard-id is required: %s holds %d shards", o.data, m.NumShards)
		}
		id = 0
	}
	sh, err := shard.OpenServing(o.data, id, o.budget, iosim.Model2002())
	if err != nil {
		return err
	}
	defer sh.Close()

	// One tracer for the whole serving path; the replica makes the
	// registry and registers every metric on it.
	o.serve.Tracer = trace.New(o.trace)
	// Overlay segments go to a scratch directory: nothing reopens a
	// sealed segment yet, so keeping them would promise a durability
	// the server does not have.
	liveDir := ""
	if o.live {
		if liveDir, err = os.MkdirTemp("", "snserve-delta-*"); err != nil {
			return err
		}
		defer os.RemoveAll(liveDir)
	}
	rep, err := serve.NewReplica(sh, o.serve, liveDir)
	if err != nil {
		return err
	}
	defer rep.Close()
	rep.SetPace(o.pace)

	srv, addr, err := serve.Start(o.listen, rep.Handler())
	if err != nil {
		return err
	}
	e := m.Shards[id]
	fmt.Printf("shard %d/%d (manifest %s): %d owned pages, %d intra edges, boundary %d fwd / %d rev\n",
		id, m.NumShards, m.Version, e.Pages, e.IntraEdges, e.BoundaryFwdEdges, e.BoundaryRevEdges)
	fmt.Printf("queries on http://%s/out and /query, ?partial=1 for a router (admission: %d slots, queue %d/class)\n",
		addr, rep.Server.Admission().MaxConcurrent(), o.serve.MaxQueue)
	fmt.Printf("metrics on http://%s/metrics (also /healthz, /metrics.json, /debug/vars, /debug/pprof, /debug/traces)\n", addr)
	if o.live {
		fmt.Println("live updates enabled: POST /update, delta overlays compacting in background")
	}
	<-ctx.Done()
	return rep.Shutdown(srv, o.drain, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
}
