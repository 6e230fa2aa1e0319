package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"c2knn/internal/similarity"
)

// stamp prints the environment the figures were taken in, as comment
// lines ahead of the result line.
func stamp(w io.Writer, wl workload, loadMode string) {
	fmt.Fprintf(w, "# env workload=%s preset=%s scale=1 nproc=%d gomaxprocs=%d kernel=%s load=%s go=%s platform=%s/%s\n",
		wl.name, wl.preset, runtime.NumCPU(), runtime.GOMAXPROCS(0), similarity.KernelName(),
		loadMode, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer loop that does not touch the program
// under test and returns the median of five timings in milliseconds. A
// run taken while the machine is slow shows a larger value; it is
// recorded next to the metrics and never used to scale them.
func calibrate() float64 {
	var ms []float64
	for range 5 {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		ms = append(ms, float64(time.Since(start))/1e6)
	}
	return median(ms)
}
