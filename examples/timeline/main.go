// Timeline renders the paper's Figs. 2–3: how two offload jobs share one
// Xeon Phi. With maximal (240-thread) offloads, COSMIC serializes kernels
// but host gaps interleave; with partial (120-thread) offloads the kernels
// overlap outright. Both beat running the jobs back to back. It prints
// experiment E8 of the phibench report.
//
//	go run ./examples/timeline
package main

import (
	"os"

	"phishare/internal/experiments"
)

func main() {
	experiments.WriteFig23(os.Stdout, experiments.Fig23(experiments.Options{}))
}
