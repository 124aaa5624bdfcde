//go:build !race

// Package raceflag says whether the race detector is compiled in. Tests
// that assert on time or on allocation counts relax under it: its
// instrumentation distorts relative costs, and sync.Pool drops a
// quarter of what is put back, so pooled scratch is reallocated.
package raceflag

// Enabled: this build runs under the race detector.
const Enabled = false
