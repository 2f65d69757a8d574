package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// Host-speed calibration.
//
// Other tenants of the host slow this benchmark for seconds to minutes at
// a time: the same kv run read 2,700 requests per second at one moment
// and 4,600 a minute later, and an arithmetic loop ran 10% slower in one
// quarter hour than in the next. Medians over segments absorb short
// bursts but not that drift. So right after every segment and every
// set-up the benchmark runs a fixed calibration kernel, and it reports
// wall times scaled by calibrationRef / (the kernel's wall time): seconds
// of a host exactly as fast as the reference (see smoothScales for how
// readings are combined). The kernel is the benchmark's own code and
// allocates nothing, so a change to the program under test does not
// change it.

// calibrationRef is the kernel's wall time on the reference host (a
// 2-vCPU Xeon VM, go1.24). Scaled times are as that host would read them.
const calibrationRef = 2200 * time.Microsecond

const (
	calWords = 1 << 21 // 16 MB, beyond the core's own caches; it counts in peak_rss_mb
	calSteps = 60000
	calHand  = 64 // steps between channel round trips and yields
)

var (
	calArr  []uint64
	calChan = make(chan uint64, 1)
	calSink uint64
)

// calKernel times seeded random reads and writes over calArr, with a
// round trip through a buffered channel and a yield to the Go scheduler
// every calHand steps: the mix of memory traffic and runtime
// bookkeeping the simulator spends its time on. It starts no goroutine.
func calKernel() time.Duration {
	w0 := wallNow()
	x, s := uint64(88172645463325252), uint64(0)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calWords - 1)
		s += calArr[j]
		calArr[j] = s ^ x
		if i%calHand == 0 {
			calChan <- s
			s = <-calChan + 1
			runtime.Gosched()
		}
	}
	calSink = s
	return wallNow().Sub(w0)
}

// calibrate runs the calibration kernel and returns calibrationRef over
// its wall time: the factor that turns a wall time measured at that
// moment into reference-host time. Below 1 the host is running slow.
//
// The kernel runs with the collector off. Turning it off first waits for
// a collection in progress to end, so the program's garbage, which the
// collector would otherwise mark while the kernel yields, does not slow
// the kernel.
func calibrate() float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if calArr == nil {
		calArr = make([]uint64, calWords)
		calKernel() // touches every page of calArr once
	}
	return float64(calibrationRef) / float64(calKernel())
}
