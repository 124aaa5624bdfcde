//go:build !unix

package main

import "time"

func pinGenerator() {}

func waitFor(d time.Duration) { time.Sleep(d) }

// processCPU is not measured here; cpu_us_per_op reads 0.
func processCPU() time.Duration { return 0 }
