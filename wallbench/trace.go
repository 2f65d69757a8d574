package main

import (
	"sort"
	"strings"
	"time"

	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// traceCapacity is the flight recorder's ring size on traced phases. A
// traced window is only analysed when its start mark is still in the
// ring, i.e. nothing inside the window was evicted.
const traceCapacity = 1 << 18

// selfComponents get their own trace.self_share metric; the exec self
// time of every other component is reported as "other".
var selfComponents = []string{"vfs", "9pfs", "lwip", "netdev", "virtio", "process"}

// traceStats is one analysed trace window.
//
// One simulated thread holds the baton at a time, so the window's wall
// time splits into dispatch intervals: from one scheduler dispatch to
// the next, the wall clock is charged to the dispatched thread. A
// component's self time is the part of its worker's intervals that lies
// inside its own exec spans — its handlers running, child calls
// excluded because the worker gives up the baton while it waits. The
// rest of a worker's time (mailbox pulls) and the message thread's time
// (pushes and routing) is hop time; redis's self time is the time its
// application threads hold the baton.
type traceStats struct {
	wall   time.Duration
	self   map[string]time.Duration // component, "redis" or "other" -> self wall
	hop    time.Duration
	host   time.Duration // host-side 9P server and network switch threads
	phases map[string][]time.Duration
	lost   bool          // the ring overwrote part of the window
	cost   time.Duration // wall spent snapshotting and analysing
}

// traceMarks brackets one traced window with benchmark marks.
type traceMarks struct{ start trace.SpanID }

func markStart(rec *trace.Recorder) *traceMarks {
	return &traceMarks{start: rec.Instant(0, trace.KindMark, "wallbench", "window-start", "")}
}

// traceWindow traces a stretch of d virtual time, starting after
// offset, from the controller thread while the clients run.
func traceWindow(s *unikernel.Sys, rec *trace.Recorder, offset, d time.Duration) *traceStats {
	sleepUntil(s, s.Elapsed()+offset)
	m := markStart(rec)
	sleepUntil(s, s.Elapsed()+d)
	return m.finish(rec)
}

// sleepUntil sleeps to a virtual deadline; wake-ups from the round
// barrier do not cut it short.
func sleepUntil(s *unikernel.Sys, deadline time.Duration) {
	for now := s.Elapsed(); now < deadline; now = s.Elapsed() {
		s.Sleep(deadline - now)
	}
}

// finish closes the window and analyses it. Reboot phases are sticky in
// the recorder, so they are collected even when the ring overflowed.
func (m *traceMarks) finish(rec *trace.Recorder) *traceStats {
	w0 := wallNow()
	ts := m.analyse(rec)
	ts.cost = wallNow().Sub(w0)
	return ts
}

func (m *traceMarks) analyse(rec *trace.Recorder) *traceStats {
	end := rec.Instant(0, trace.KindMark, "wallbench", "window-end", "")
	evs := rec.Snapshot()
	var s0, e0 time.Duration
	found := 0
	for _, e := range evs {
		switch e.ID {
		case m.start:
			s0 = e.WallStart
			found++
		case end:
			e0 = e.WallStart
			found++
		}
	}
	if found != 2 {
		ts := &traceStats{lost: true, phases: make(map[string][]time.Duration)}
		collectPhases(ts.phases, evs, 0, end)
		return ts
	}
	ts := analyse(evs, s0, e0)
	collectPhases(ts.phases, evs, m.start, end)
	return ts
}

// phasesDuring runs fn and returns the wall time of the reboot phases it
// recorded, by phase name.
func phasesDuring(rec *trace.Recorder, fn func()) map[string][]time.Duration {
	from := rec.Instant(0, trace.KindMark, "wallbench", "probe-start", "")
	fn()
	to := rec.Instant(0, trace.KindMark, "wallbench", "probe-end", "")
	phases := make(map[string][]time.Duration)
	collectPhases(phases, rec.Snapshot(), from, to)
	return phases
}

// collectPhases gathers the reboot phase spans recorded between two
// marks (span ids grow in record order).
func collectPhases(phases map[string][]time.Duration, evs []trace.Event, from, to trace.SpanID) {
	for _, e := range evs {
		if e.Kind == trace.KindPhase && !e.Open && e.ID > from && e.ID < to {
			phases[e.Name] = append(phases[e.Name], e.WallDuration())
		}
	}
}

type interval struct{ a, b time.Duration }

func analyse(evs []trace.Event, s0, e0 time.Duration) *traceStats {
	ts := &traceStats{wall: e0 - s0, self: make(map[string]time.Duration), phases: make(map[string][]time.Duration)}
	crashAt := make(map[trace.SpanID]time.Duration)
	for _, e := range evs {
		if e.Kind == trace.KindCrash {
			crashAt[e.Parent] = e.WallStart
		}
	}
	execs := make(map[string][]interval) // component -> its exec spans
	var dispatches []trace.Event
	for _, e := range evs {
		switch e.Kind {
		case trace.KindExec:
			end := e.WallEnd
			if c, ok := crashAt[e.ID]; ok && e.Open {
				end = c // a crashed handler's span never ends
			}
			execs[e.Component] = append(execs[e.Component], interval{e.WallStart, end})
		case trace.KindDispatch:
			dispatches = append(dispatches, e)
		}
	}
	for _, iv := range execs {
		sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	}
	sort.SliceStable(dispatches, func(i, j int) bool { return dispatches[i].WallStart < dispatches[j].WallStart })
	for i, d := range dispatches {
		next := e0
		if i+1 < len(dispatches) {
			next = dispatches[i+1].WallStart
		}
		a, b := max(d.WallStart, s0), min(next, e0)
		if b <= a {
			continue
		}
		switch name := d.Component; {
		case strings.HasPrefix(name, "comp/"):
			c := strings.TrimPrefix(name, "comp/")
			in := overlap(interval{a, b}, execs[c])
			ts.self[selfBucket(c)] += in
			ts.hop += b - a - in
		case name == "vampos/msg":
			ts.hop += b - a
		case strings.HasPrefix(name, "redis/"):
			ts.self["redis"] += b - a
		case strings.HasPrefix(name, "host/"):
			ts.host += b - a
		}
	}
	return ts
}

// overlap is how much of x lies inside the sorted, disjoint spans ivs.
func overlap(x interval, ivs []interval) time.Duration {
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].b > x.a })
	var d time.Duration
	for ; i < len(ivs) && ivs[i].a < x.b; i++ {
		if lo, hi := max(ivs[i].a, x.a), min(ivs[i].b, x.b); hi > lo {
			d += hi - lo
		}
	}
	return d
}

func selfBucket(component string) string {
	for _, c := range selfComponents {
		if c == component {
			return c
		}
	}
	return "other"
}

// traceSummary sums the windows of a phase.
type traceSummary struct {
	wall, hop, host time.Duration
	cost            time.Duration
	self            map[string]time.Duration
	windows, lost   int
}

func summarise(ts []*traceStats) traceSummary {
	s := traceSummary{self: make(map[string]time.Duration)}
	for _, t := range ts {
		s.cost += t.cost
		if t.lost {
			s.lost++
			continue
		}
		s.windows++
		s.wall += t.wall
		s.hop += t.hop
		s.host += t.host
		for k, v := range t.self {
			s.self[k] += v
		}
	}
	return s
}

func (s traceSummary) share(d time.Duration) float64 {
	if s.wall <= 0 {
		return 0
	}
	return float64(d) / float64(s.wall)
}
