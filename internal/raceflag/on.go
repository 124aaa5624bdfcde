//go:build race

package raceflag

// Enabled: this build runs under the race detector.
const Enabled = true
