package main

import (
	"fmt"
	"time"

	"vampos/internal/core"
	"vampos/internal/unikernel"
)

// counters are the program's own exact counters, read through public
// accessors. Their per-op deltas repeat exactly for a given seed.
type counters struct {
	dispatches, clockAdvances uint64
	calls, messages           uint64
	p9Requests, fsyncs        uint64
}

func readCounters(inst *unikernel.Instance) counters {
	rt := inst.Runtime()
	st, ss := rt.Stats(), rt.SchedStats()
	srv := inst.Host().Server()
	return counters{
		dispatches:    ss.Dispatches,
		clockAdvances: ss.ClockAdvances,
		calls:         st.Calls,
		messages:      st.Messages,
		p9Requests:    srv.Handled,
		fsyncs:        srv.FS().FsyncCount,
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		dispatches:    c.dispatches - o.dispatches,
		clockAdvances: c.clockAdvances - o.clockAdvances,
		calls:         c.calls - o.calls,
		messages:      c.messages - o.messages,
		p9Requests:    c.p9Requests - o.p9Requests,
		fsyncs:        c.fsyncs - o.fsyncs,
	}
}

func (c *counters) add(o counters) {
	c.dispatches += o.dispatches
	c.clockAdvances += o.clockAdvances
	c.calls += o.calls
	c.messages += o.messages
	c.p9Requests += o.p9Requests
	c.fsyncs += o.fsyncs
}

// phaseResult accumulates one phase: the untraced measurement, or the
// traced one.
type phaseResult struct {
	setups      []float64 // s, each set-up's boot-to-first-timed-op
	bootMS      []float64 // unikernel.New through the first controller instruction
	bootAllocMB []float64

	ops                  int           // requests (kv, paced) or trials (recover)
	reqOK                []float64     // wall of successful requests
	missedUS             []float64     // wall of failed requests
	maxLateness          time.Duration // virtual; how late the paced generator sent a request
	getUS, setUS         []float64
	attempted, failed    int
	incorrect            int
	trials, failedTrials int
	notes                []string

	wall    time.Duration
	virt    time.Duration
	allocs  allocSnap
	gcShare float64
	ctr     counters

	residentMB, domainKB float64

	recoveryMS     []float64
	lostRecoveries int
	rebootWallUS   []float64
	replayed       []float64
	restored       []float64
	proactiveUS    []float64

	segments         []segment
	segOK, segMissed int       // reqOK and missedUS entries before the open segment
	setupScales      []float64 // calibrate() after every set-up
	digests          []string
	traces           []*traceStats
	phases           map[string][]time.Duration // reboot phase walls (traced phases)
}

// segment is one round (kv, paced) or one cycle of trials (recover).
// Rates are medians over segments, and the tail latency a median over
// windows of whole segments, so a burst of host interference shifts a
// few segments rather than the whole figure.
type segment struct {
	wall, virt     time.Duration
	ops            int
	okUS, missedUS []float64 // wall latency of its requests
	scale          float64   // calibrate() right after the segment
	ref            float64   // smoothed scale: see smoothScales
}

// closeSegment ends the open segment: the requests added since the
// previous segment ended belong to it. It runs the calibration kernel,
// so the caller takes the next segment's start time after it returns.
func (r *phaseResult) closeSegment(wall, virt time.Duration, ops int) {
	r.segments = append(r.segments, segment{
		wall: wall, virt: virt, ops: ops,
		okUS:     r.reqOK[r.segOK:len(r.reqOK):len(r.reqOK)],
		missedUS: r.missedUS[r.segMissed:len(r.missedUS):len(r.missedUS)],
		scale:    calibrate(),
	})
	r.segOK, r.segMissed = len(r.reqOK), len(r.missedUS)
}

// addSetup records one set-up that took wall, and calibrates.
func (r *phaseResult) addSetup(wall time.Duration) {
	r.setups = append(r.setups, wall.Seconds())
	r.setupScales = append(r.setupScales, calibrate())
}

// scaleSpan is how many neighbouring segments' calibrations make one
// segment's scale.
const scaleSpan = 9

// smoothScales sets each segment's ref to the median calibration of the
// scaleSpan segments centred on it. A single kernel run is noisy (within
// one run its scale ranges 0.8 to 1.6); the median of nine follows the
// host's drift over seconds without passing one reading's noise into
// the tail latency.
func (r *phaseResult) smoothScales() {
	for i := range r.segments {
		lo := min(max(0, i-scaleSpan/2), max(0, len(r.segments)-scaleSpan))
		hi := min(len(r.segments), lo+scaleSpan)
		xs := make([]float64, 0, scaleSpan)
		for _, sg := range r.segments[lo:hi] {
			xs = append(xs, sg.scale)
		}
		r.segments[i].ref = quantile(xs, 0.5)
	}
}

// scale is the median segment scale: the phase's wall figures that are
// not per segment are scaled by it.
func (r *phaseResult) scale() float64 {
	xs := make([]float64, 0, len(r.segments))
	for _, sg := range r.segments {
		xs = append(xs, sg.ref)
	}
	return quantile(xs, 0.5)
}

// scaled is xs, each times f.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// segmentMedian is the median over segments of f.
func (r *phaseResult) segmentMedian(f func(segment) float64) float64 {
	xs := make([]float64, 0, len(r.segments))
	for _, sg := range r.segments {
		if sg.wall > 0 {
			xs = append(xs, f(sg))
		}
	}
	return quantile(xs, 0.5)
}

// p99Window is the least number of requests a tail-latency window
// holds, so that its 99th percentile has twenty samples beyond it.
const p99Window = 2000

// windowedP99 cuts the run's segments, in order, into windows of at
// least p99Window requests, takes each window's 99th percentile of the
// scaled latencies with failed requests ranked above every success, and
// returns the median over windows and the number of windows. A run
// with fewer requests is one window.
func (r *phaseResult) windowedP99() (float64, int) {
	n := 0
	for _, sg := range r.segments {
		n += len(sg.okUS) + len(sg.missedUS)
	}
	k := max(1, n/p99Window)
	var p99s, ok, missed []float64
	for i, sg := range r.segments {
		ok = append(ok, scaled(sg.okUS, sg.ref)...)
		missed = append(missed, scaled(sg.missedUS, sg.ref)...)
		if (len(ok)+len(missed) >= n/k && len(p99s) < k-1) || i == len(r.segments)-1 {
			p99s = append(p99s, tailQuantile(ok, missed, 0.99))
			ok, missed = nil, nil
		}
	}
	return quantile(p99s, 0.5), len(p99s)
}

func (r *phaseResult) addBoot(wall time.Duration, a allocSnap) {
	r.bootMS = append(r.bootMS, ms(wall))
	r.bootAllocMB = append(r.bootAllocMB, float64(a.bytes)/(1<<20))
}

func (r *phaseResult) addRequest(s reqSample) {
	r.attempted++
	r.maxLateness = max(r.maxLateness, s.lateness)
	if !s.ok {
		r.failed++
		r.missedUS = append(r.missedUS, us(s.wall))
		return
	}
	r.reqOK = append(r.reqOK, us(s.wall))
	if s.set {
		r.setUS = append(r.setUS, us(s.wall))
	} else {
		r.getUS = append(r.getUS, us(s.wall))
	}
}

func (r *phaseResult) noteInstance(inst *unikernel.Instance) {
	rt := inst.Runtime()
	r.residentMB = float64(rt.ResidentBytes()) / (1 << 20)
	r.domainKB = float64(rt.DomainBytes()) / 1024
}

func (r *phaseResult) addTrace(ts *traceStats) {
	r.traces = append(r.traces, ts)
	r.addPhases(ts.phases)
}

func (r *phaseResult) addPhases(phases map[string][]time.Duration) {
	if r.phases == nil {
		r.phases = make(map[string][]time.Duration)
	}
	for k, v := range phases {
		r.phases[k] = append(r.phases[k], v...)
	}
}

// noteReboots records the instance's reboot records.
func (r *phaseResult) noteReboots(rt *core.Runtime) {
	for _, rr := range rt.Reboots() {
		r.rebootWallUS = append(r.rebootWallUS, us(rr.WallDuration))
		r.replayed = append(r.replayed, float64(rr.ReplayedEntries))
		r.restored = append(r.restored, float64(rr.RestoredPages))
	}
}

// proactiveReboot reboots component through Sys.Reboot, timing the call,
// and checks that it left a reboot record.
func (r *phaseResult) proactiveReboot(s *unikernel.Sys, component string) error {
	rt := s.Instance().Runtime()
	n0 := len(rt.Reboots())
	w0 := wallNow()
	err := s.Reboot(component)
	r.proactiveUS = append(r.proactiveUS, us(wallNow().Sub(w0)))
	if err == nil && len(rt.Reboots()) == n0 {
		err = fmt.Errorf("no reboot record")
	}
	if err != nil {
		return fmt.Errorf("proactive reboot of %s: %w", component, err)
	}
	return nil
}

// window measures wall time, Go allocations and GC CPU over the timed
// part of a phase.
type window struct {
	w0 time.Time
	a0 allocSnap
	c0 cpuSnap
}

func startWindow() *window {
	return &window{a0: readAllocs(), c0: readCPU(), w0: wallNow()}
}

func (m *window) end(r *phaseResult) {
	r.wall = wallNow().Sub(m.w0)
	r.allocs = readAllocs().sub(m.a0)
	r.gcShare = gcShare(m.c0, readCPU())
}
