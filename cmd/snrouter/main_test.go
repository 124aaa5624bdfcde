package main

import (
	"strings"
	"testing"
	"time"
)

// TestValidate: the defaults pass, -trace-every 0 (tracing off) passes,
// and every value the router would rewrite or misread is refused by
// name.
func TestValidate(t *testing.T) {
	good := func() options {
		return options{root: "shards", listen: ":8080", shardTimeout: 5 * time.Second, ejectAfter: 3, probeInterval: 500 * time.Millisecond, traceEvery: 64, traceSlow: 4}
	}
	if err := validate(good()); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	untraced := good()
	untraced.traceEvery = 0
	if err := validate(untraced); err != nil {
		t.Fatalf("-trace-every 0 refused: %v", err)
	}
	for _, c := range []struct {
		name  string
		edit  func(*options)
		wants string
	}{
		{"no -root", func(o *options) { o.root = "" }, "-root is required"},
		{"-shard-timeout 0", func(o *options) { o.shardTimeout = 0 }, "-shard-timeout must be positive"},
		{"-eject-after 0", func(o *options) { o.ejectAfter = 0 }, "-eject-after must be >= 1"},
		{"-probe-interval 0", func(o *options) { o.probeInterval = 0 }, "-probe-interval must be positive"},
		{"-probe-interval -1s", func(o *options) { o.probeInterval = -time.Second }, "-probe-interval must be positive"},
		{"-trace-every -1", func(o *options) { o.traceEvery = -1 }, "-trace-every must be >= 0"},
		{"-trace-slow 0", func(o *options) { o.traceSlow = 0 }, "-trace-slow must be positive"},
		{"-trace-slow -2", func(o *options) { o.traceSlow = -2 }, "-trace-slow must be positive"},
	} {
		o := good()
		c.edit(&o)
		if err := validate(o); err == nil || !strings.Contains(err.Error(), c.wants) {
			t.Errorf("%s: err = %v, want one saying %q", c.name, err, c.wants)
		}
	}
}
