package main

import (
	"fmt"
	"runtime"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/bench"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// crashTargets are the components on Redis's data path; every trial
// crashes each of them once, in seeded order.
var crashTargets = []string{"vfs", "9pfs", "lwip", "netdev"}

const (
	trialWarmKeys     = 32 // keys written before the first fault is armed
	maxWritesPerCrash = 64 // writes allowed for an armed fault to fire and recover
	crashOrdinals     = 3  // fault ordinals 1..3; a cycle uses each once per component
	trialsPerCycle    = crashOrdinals
	redialAttempts    = 5
	// trialTimeout is the client timeout in virtual time: about four
	// times the slowest successful request of a trial (5.5 ms, a
	// request that waits out a component reboot and replay). A request
	// whose reply is lost fails after it, and the client redials.
	trialTimeout = 25 * time.Millisecond
)

// trialPlan is one trial's seeded fault schedule.
type trialPlan struct {
	cycle, index int
	order        []string       // crash targets in firing order
	after        map[string]int // FaultSpec.After per target
	proactive    string         // target of the proactive Sys.Reboot
}

// cyclePlans draws one cycle of trials. Within a cycle every target is
// crashed at each ordinal exactly once, so every cycle exercises the
// same set of (component, ordinal) faults; the seed decides which trial
// gets which ordinal, the crash order and the proactive target.
func cyclePlans(seed int64, cycle int) []trialPlan {
	r := newRNG(seed, 1000+uint64(cycle))
	ords := make(map[string][]int, len(crashTargets))
	for _, c := range crashTargets {
		ords[c] = r.perm(crashOrdinals)
	}
	plans := make([]trialPlan, trialsPerCycle)
	for t := range plans {
		p := trialPlan{cycle: cycle, index: t, after: make(map[string]int)}
		for _, i := range r.perm(len(crashTargets)) {
			p.order = append(p.order, crashTargets[i])
		}
		for _, c := range crashTargets {
			p.after[c] = 1 + ords[c][t]
		}
		p.proactive = crashTargets[r.intn(len(crashTargets))]
		plans[t] = p
	}
	return plans
}

// trialRun is the mutable state of one recover trial.
type trialRun struct {
	seed   int64
	plan   trialPlan
	s      *unikernel.Sys
	rt     *core.Runtime
	ctl    *sched.Thread
	th     *sched.Thread
	cl     *bench.RedisClient
	shadow map[string]string
	order  []string // acknowledged keys in write order
	next   int      // next key index

	samples   []reqSample
	recovery  []time.Duration // wall of the request in flight at each crash, when it succeeded
	lost      []string        // crashes whose in-flight request failed
	stage     int             // 1: crashes done, waiting for the proactive reboot; 2: go on
	done      bool
	fail      string // why the trial failed, empty when it passed
	incorrect int
	firstBad  string
}

func (t *trialRun) failf(format string, args ...any) {
	if t.fail == "" {
		t.fail = fmt.Sprintf(format, args...)
	}
}

func (t *trialRun) dial() bool {
	for i := 0; i < redialAttempts; i++ {
		cl, err := bench.DialRedis(t.s, t.th, t.s.NewPeer(), redis.DefaultPort, trialTimeout)
		if err == nil {
			t.cl = cl
			return true
		}
		t.th.Sleep(20 * time.Millisecond)
	}
	t.failf("redial failed %d times", redialAttempts)
	return false
}

// request times one SET (val != "") or GET and redials after a failure.
func (t *trialRun) request(k, val string) (reqSample, string, bool) {
	smp := reqSample{set: val != ""}
	v0 := t.th.Elapsed()
	w0 := wallNow()
	var err error
	var got string
	if smp.set {
		err = t.cl.Set(k, val, trialTimeout)
	} else {
		var found bool
		got, found, err = t.cl.Get(k, trialTimeout)
		if err == nil && !found {
			got = "<missing>"
		}
	}
	smp.wall = wallNow().Sub(w0)
	smp.virt = t.th.Elapsed() - v0
	smp.ok = err == nil
	t.samples = append(t.samples, smp)
	if err != nil {
		t.cl.Close()
		t.cl = nil
		return smp, "", t.dial()
	}
	return smp, got, true
}

func (t *trialRun) write() (reqSample, bool) {
	k := fmt.Sprintf("t%03d", t.next)
	v := valueFor(t.seed, 10000*t.plan.cycle+1000*t.plan.index+t.next, 0)
	t.next++
	smp, _, alive := t.request(k, v)
	if smp.ok {
		if _, seen := t.shadow[k]; !seen {
			t.order = append(t.order, k)
		}
		t.shadow[k] = v
	}
	return smp, alive
}

// clientLoop is the trial's host-side client: warm writes and their
// read-back, one armed crash per target with writes until its reboot
// record appears, a pause for the controller's proactive reboot, then a
// read-back of every acknowledged key.
func (t *trialRun) clientLoop() {
	defer func() {
		t.done = true
		t.ctl.Wake()
	}()
	if !t.dial() {
		return
	}
	for i := 0; i < trialWarmKeys; i++ {
		if _, alive := t.write(); !alive {
			return
		}
	}
	if !t.readBack() {
		return
	}
	for _, comp := range t.plan.order {
		if err := t.rt.ArmFaultSpec(comp, core.AnyFunction, core.FaultSpec{Kind: core.FaultCrash, After: t.plan.after[comp]}); err != nil {
			t.failf("arm %s: %v", comp, err)
			return
		}
		n0 := len(t.rt.Reboots())
		fired := false
		for i := 0; i < maxWritesPerCrash && !fired; i++ {
			if len(t.rt.Reboots()) > n0 {
				fired = true // recovered between requests: nothing was in flight
				break
			}
			smp, alive := t.write()
			if len(t.rt.Reboots()) > n0 {
				fired = true
				if smp.ok {
					t.recovery = append(t.recovery, smp.wall)
				} else {
					t.lost = append(t.lost, fmt.Sprintf("%s after=%d (%s)", comp, t.plan.after[comp], t.rt.Reboots()[n0].Reason))
				}
			}
			if !alive {
				return
			}
		}
		if !fired {
			t.failf("no reboot record after crash armed on %s (after=%d)", comp, t.plan.after[comp])
			return
		}
	}
	if p := t.rt.PendingFaults(); len(p) > 0 {
		t.failf("armed faults never fired: %v", p)
		return
	}
	t.stage = 1
	t.ctl.Wake()
	for t.stage != 2 {
		t.th.Block("wallbench: proactive reboot")
	}
	if t.readBack() {
		t.cl.Close()
	}
}

// readBack GETs every acknowledged key and checks it against the shadow
// map. It runs once before the first fault and once at the end, which
// also keeps GETs the majority of a trial's requests, so the latency
// median sits inside the GET cluster instead of between GETs and SETs.
func (t *trialRun) readBack() bool {
	for _, k := range t.order {
		smp, got, alive := t.request(k, "")
		if smp.ok && got != t.shadow[k] {
			t.incorrect++
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("read-back %s = %q, want %q", k, got, t.shadow[k])
			}
		}
		if !alive {
			return false
		}
	}
	return true
}

// recoverTrial boots a fresh instance and runs one trial on it. dg, when
// non-nil, receives the trial's model observables. setupOnly boots,
// starts Redis and connects, then stops: the set-up recover repeats.
func recoverTrial(seed int64, plan trialPlan, traced, setupOnly bool, res *phaseResult, dg *digest) error {
	a0 := readAllocs()
	w0 := wallNow()
	inst, app, err := newRedisInstance()
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if traced {
		rec = inst.NewTracer("wallbench/recover", trace.WithDispatches(), trace.WithCapacity(traceCapacity))
	}
	rt := inst.Runtime()
	t := &trialRun{seed: seed, plan: plan, rt: rt, shadow: make(map[string]string)}
	var runErr error
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		defer teardown(s)
		res.addBoot(wallNow().Sub(w0), readAllocs().sub(a0))
		t.s, t.ctl = s, s.Ctx().Thread()
		if runErr = s.StartApp(app); runErr != nil {
			return
		}
		if setupOnly {
			s.GoHost("wallbench/setup", func(th *sched.Thread) {
				t.th = th
				if t.dial() {
					t.cl.Close()
				}
				t.done = true
				t.ctl.Wake()
			})
			for !t.done {
				t.ctl.Block("wallbench: set-up dial")
			}
			res.addSetup(wallNow().Sub(w0))
			if t.fail != "" {
				runErr = fmt.Errorf("set-up: %s", t.fail)
			}
			return
		}
		v0 := s.Elapsed()
		k0 := readCounters(inst)
		var win *traceMarks
		if rec != nil {
			win = markStart(rec)
		}
		s.GoHost("wallbench/client", func(th *sched.Thread) {
			t.th = th
			t.clientLoop()
		})
		for !t.done && t.stage != 1 {
			t.ctl.Block("wallbench: trial")
		}
		if t.stage == 1 {
			if err := res.proactiveReboot(s, plan.proactive); err != nil {
				t.failf("%v", err)
			}
			t.stage = 2
			t.th.Wake()
			for !t.done {
				t.ctl.Block("wallbench: read-back")
			}
		}
		res.virt += s.Elapsed() - v0
		res.ctr.add(readCounters(inst).sub(k0))
		res.noteInstance(inst)
		res.noteReboots(rt)
		if win != nil {
			res.addTrace(win.finish(rec))
		}
		if dg != nil {
			for _, smp := range t.samples {
				dg.dur(smp.virt)
			}
			foldInstance(dg, s, inst)
		}
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return err
	}
	if setupOnly {
		return nil
	}
	for _, smp := range t.samples {
		res.addRequest(smp)
	}
	for _, d := range t.recovery {
		res.recoveryMS = append(res.recoveryMS, ms(d))
	}
	for _, l := range t.lost {
		res.lostRecoveries++
		res.notes = append(res.notes, "crash on "+l+" lost the in-flight request")
	}
	res.trials++
	res.ops++
	res.incorrect += t.incorrect
	if t.firstBad != "" {
		res.notes = append(res.notes, "oracle: "+t.firstBad)
	}
	if t.fail != "" {
		res.failedTrials++
		res.notes = append(res.notes, fmt.Sprintf("trial %d.%d failed: %s", plan.cycle, plan.index, t.fail))
	}
	return nil
}

// recoverPhase runs the whole cycles of trials that seconds sizes; the
// first cycle is the identity digest.
func recoverPhase(seed int64, seconds float64, traced, setups bool, res *phaseResult) error {
	if setups {
		for i := 0; i < setupRepeats; i++ {
			runtime.GC()
			if err := recoverTrial(seed, trialPlan{}, false, true, res, nil); err != nil {
				return err
			}
		}
	}
	m := startWindow()
	dg := newDigest()
	for cycle := 0; ; cycle++ {
		w0, v0, n0 := wallNow(), res.virt, res.ops
		for _, plan := range cyclePlans(seed, cycle) {
			d := &dg
			if cycle > 0 {
				d = nil
			}
			if err := recoverTrial(seed, plan, traced, false, res, d); err != nil {
				return fmt.Errorf("trial %d.%d: %w", plan.cycle, plan.index, err)
			}
		}
		res.closeSegment(wallNow().Sub(w0), res.virt-v0, res.ops-n0)
		if cycle+1 >= workUnits("recover", seconds) || wallNow().Sub(m.w0).Seconds() >= wallCap*seconds {
			break
		}
	}
	m.end(res)
	res.digests = append(res.digests, dg.String())
	return nil
}
