package main

import (
	"strings"
	"testing"
	"time"

	"snode/internal/serve"
	"snode/internal/trace"
)

// TestValidate: the defaults with -data and -listen pass, and every
// value that would fail obscurely downstream is refused by flag name.
func TestValidate(t *testing.T) {
	good := func() *options {
		return &options{
			data: "data", shardID: -1, listen: ":0", budget: 1 << 20, pace: 1, drain: 10 * time.Second,
			trace: trace.Config{SampleEvery: 64, SlowPerClass: 4}, serve: serve.Config{MaxQueue: 64},
		}
	}
	if err := validate(good()); err != nil {
		t.Fatalf("defaults refused: %v", err)
	}
	for flag, breakIt := range map[string]func(*options){
		"-data":           func(o *options) { o.data = "" },
		"-listen":         func(o *options) { o.listen = "" },
		"-shard-id":       func(o *options) { o.shardID = -2 },
		"-budget":         func(o *options) { o.budget = 0 },
		"-pace":           func(o *options) { o.pace = -0.5 },
		"-trace-every":    func(o *options) { o.trace.SampleEvery = -1 },
		"-trace-slow":     func(o *options) { o.trace.SlowPerClass = 0 },
		"-drain":          func(o *options) { o.drain = 0 },
		"-max-concurrent": func(o *options) { o.serve.MaxConcurrent = -1 },
		"-max-queue":      func(o *options) { o.serve.MaxQueue = 0 },
		"-deadline":       func(o *options) { o.serve.DefaultDeadline = -time.Second },
	} {
		o := good()
		breakIt(o)
		if err := validate(o); err == nil || !strings.HasPrefix(err.Error(), flag+" ") {
			t.Errorf("%s: err = %v, want a refusal naming the flag", flag, err)
		}
	}
	// -trace-every 0 is a value, not an error: local sampling off.
	o := good()
	o.trace.SampleEvery = 0
	if err := validate(o); err != nil {
		t.Errorf("-trace-every 0 refused: %v", err)
	}
}
