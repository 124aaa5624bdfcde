// Command snrouter is the scatter-gather front of the distributed
// serving tier. It loads the manifest of a dataset directory (snbuild)
// plus the forward boundary stores, and routes the serving endpoints
// across the shard replicas:
//
//	/out      ?page=N: routed to the ONE shard owning the page, with
//	          the page's cross-shard targets appended from the
//	          router-resident boundary store
//	/query    ?q=1..6: scattered as ?partial=1 to EVERY shard, merged
//	          with the query's merge class into single-node rows; each
//	          leg answers with one binary partial frame, and a leg under
//	          any other Content-Type (a replica answering JSON) fails
//	          the query with 502
//	/healthz  readiness
//
// plus the fleet observability surface:
//
//	/metrics          router_* counters (requests per class, failovers,
//	                  fan-out errors, sheds per class, ejections,
//	                  re-admissions, version skew, stitched traces) and
//	                  the per-class end-to-end latency histograms whose
//	                  tail buckets carry stitched-trace exemplars
//	/metrics.json     the same registry as a mergeable JSON snapshot
//	/cluster/metrics  fleet federation: every replica's /metrics.json
//	                  scraped live, merged per shard and cluster-wide
//	                  (bucket-wise histogram merge); replicas that stop
//	                  answering are reported from the scrape cache with
//	                  a staleness mark and age
//	/debug/traces     sampled routed requests as DISTRIBUTED traces:
//	                  the router's fanout/merge spans with every
//	                  shard's force-traced span subtree stitched in
//	                  (?id=N&format=chrome renders per-shard process
//	                  lanes in chrome://tracing)
//	/debug/vars       the registry snapshot as expvar JSON
//	/debug/pprof      the standard net/http/pprof profiles
//
// Replicas are named per shard:
//
//	snrouter -root /data/shards \
//	  -replicas "http://s0a:8080,http://s0b:8080;http://s1a:8080"
//
// Groups are ';'-separated in shard order; URLs within a group are
// ','-separated. A replica is ejected after -eject-after consecutive
// failures, re-probed every -probe-interval via /healthz, and healed
// immediately by any in-band success. A 429 from a shard is relayed —
// aggregated across legs as the maximum Retry-After — rather than
// failed over, and a replica serving a different manifest version than
// the router's is treated as down (version skew).
//
// Sampled requests (-trace-every) propagate the X-SNode-Trace header
// to every fan-out leg so shards force-trace them regardless of their
// own sampling; unsampled requests carry no header and pay no
// allocation for the machinery.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"snode/internal/metrics"
	"snode/internal/router"
	"snode/internal/serve"
	"snode/internal/shard"
	"snode/internal/trace"
)

// parseReplicas splits a ';'-separated list of ','-separated URL
// groups into per-shard replica lists.
func parseReplicas(spec string) ([][]string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-replicas is required")
	}
	var out [][]string
	for i, group := range strings.Split(spec, ";") {
		var urls []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("shard %d: replica %q is not an http(s) URL", i, u)
			}
			urls = append(urls, strings.TrimRight(u, "/"))
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard %d: empty replica group", i)
		}
		out = append(out, urls)
	}
	return out, nil
}

// options are the router parameters.
type options struct {
	root          string
	reps          [][]string
	listen        string
	shardTimeout  time.Duration
	ejectAfter    int
	probeInterval time.Duration
	traceEvery    int
	traceSlow     int
}

// validate refuses flag values the router would otherwise rewrite or
// misread, so the startup line prints what actually runs.
func validate(o options) error {
	switch {
	case o.root == "":
		return fmt.Errorf("-root is required")
	case o.shardTimeout <= 0:
		return fmt.Errorf("-shard-timeout must be positive, got %v", o.shardTimeout)
	case o.ejectAfter < 1:
		return fmt.Errorf("-eject-after must be >= 1, got %d", o.ejectAfter)
	case o.probeInterval <= 0:
		return fmt.Errorf("-probe-interval must be positive, got %v", o.probeInterval)
	case o.traceEvery < 0:
		return fmt.Errorf("-trace-every must be >= 0, got %d (0 disables tracing)", o.traceEvery)
	case o.traceSlow <= 0:
		return fmt.Errorf("-trace-slow must be positive, got %d", o.traceSlow)
	}
	return nil
}

// parseFlags reads the command line and exits 2, flag-package style
// (message plus defaults), on anything validate or parseReplicas
// refuses.
func parseFlags() options {
	var o options
	var replicas string
	flag.StringVar(&o.root, "root", "", "shard root directory (holds manifest.json; required)")
	flag.StringVar(&replicas, "replicas", "", "per-shard replica URLs: groups ';'-separated in shard order, URLs ','-separated within a group (required)")
	flag.StringVar(&o.listen, "listen", ":8080", "address to serve the routed endpoints and observability surface on")
	flag.DurationVar(&o.shardTimeout, "shard-timeout", 5*time.Second, "per-leg deadline for each shard request (> 0)")
	flag.IntVar(&o.ejectAfter, "eject-after", 3, "consecutive failures that eject a replica from selection (>= 1)")
	flag.DurationVar(&o.probeInterval, "probe-interval", 500*time.Millisecond, "ejected-replica health-probe period (> 0)")
	flag.IntVar(&o.traceEvery, "trace-every", 64, "trace 1 in N routed requests as stitched distributed traces (0 disables tracing)")
	flag.IntVar(&o.traceSlow, "trace-slow", 4, "retain the N slowest traces per request class (> 0)")
	flag.Parse()

	err := validate(o)
	if err == nil {
		o.reps, err = parseReplicas(replicas)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "snrouter: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	return o
}

func main() {
	if err := run(parseFlags()); err != nil {
		fmt.Fprintf(os.Stderr, "snrouter: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	m, err := shard.LoadManifest(o.root)
	if err != nil {
		return err
	}
	if len(o.reps) != m.NumShards {
		return fmt.Errorf("-replicas names %d shard group(s), manifest has %d shards", len(o.reps), m.NumShards)
	}
	bs, err := shard.LoadFwdBoundaries(o.root, m)
	if err != nil {
		return err
	}
	boundaryEdges := int64(0)
	for _, b := range bs {
		boundaryEdges += b.NumEdges()
	}

	reg := metrics.NewRegistry()
	var tracer *trace.Tracer
	if o.traceEvery > 0 {
		tracer = trace.New(trace.Config{SampleEvery: o.traceEvery, SlowPerClass: o.traceSlow})
	}
	r, err := router.New(router.Config{
		Manifest:      m,
		Boundaries:    bs,
		Replicas:      o.reps,
		ShardTimeout:  o.shardTimeout,
		EjectAfter:    o.ejectAfter,
		ProbeInterval: o.probeInterval,
		Registry:      reg,
		Tracer:        tracer,
	})
	if err != nil {
		return err
	}
	defer r.Close()

	// Register mounts the routed endpoints plus /metrics, /metrics.json,
	// /cluster/metrics and /debug/traces; the process-level debug
	// surface (expvar, pprof) mounts alongside.
	mux := http.NewServeMux()
	r.Register(mux)
	serve.MountDebug(mux, "snrouter", reg)
	srv, addr, err := serve.Start(o.listen, mux)
	if err != nil {
		return err
	}

	fmt.Printf("manifest %s: %d pages, %d shards, %d cross-shard edges resident\n",
		m.Version, m.NumPages, m.NumShards, boundaryEdges)
	for s, urls := range o.reps {
		fmt.Printf("  shard %d (%d pages): %s\n", s, m.Shards[s].Pages, strings.Join(urls, ", "))
	}
	fmt.Printf("routing on http://%s/out and /query (leg timeout %v, eject after %d, probe every %v)\n",
		addr, o.shardTimeout, o.ejectAfter, o.probeInterval)
	fmt.Printf("observability: /metrics /metrics.json /cluster/metrics /debug/traces /debug/vars /debug/pprof\n")

	<-ctx.Done()
	fmt.Println("shutting down")
	// A leg that outlives the drain is cut; the client retries.
	_ = serve.Drain(srv, 10*time.Second)
	return nil
}
