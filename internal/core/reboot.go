package core

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"vampos/internal/defense"
	"vampos/internal/mem"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// handleFailure runs on the message thread when a component handler
// panicked: attribute the failure, fail the in-flight call (retryable),
// discard its half-written log record, and start the reboot.
func (rt *Runtime) handleFailure(g *group, seq uint64, reason string) {
	rt.stats.failures.Add(1)
	victim := g.members[0]
	if pc := rt.pending[seq]; pc != nil {
		victim = pc.to
	}
	victim.failures.Add(1)
	var detectParent trace.SpanID
	if pc := rt.pending[seq]; pc != nil {
		detectParent = pc.span
	}
	if tr := rt.tracer; tr != nil {
		tr.Instant(detectParent, trace.KindDetect, victim.desc.Name, "failure", reason)
	}
	if rt.onComponentFailure != nil {
		rt.onComponentFailure(victim.desc.Name, reason)
	}
	var failFn string
	var failArgs msg.Args
	if pc := rt.pending[seq]; pc != nil && !pc.done {
		failFn, failArgs = pc.fn, pc.args
		if pc.rec != nil {
			victim.domain.Log().DropRecord(pc.rec)
			pc.rec = nil
		}
		pc.rebooted = true
		rt.finishCall(pc, nil, "")
	}
	if g.failedTwice || g.rebooting {
		// Failure while already restoring: deterministic fault,
		// fail-stop the group (§II-B).
		g.failedTwice = true
		g.rebooting = false
		if tr := rt.tracer; tr != nil {
			tr.EndErr(g.rebootSpan, "fail-stop: "+reason)
			g.rebootSpan, g.quiesceSpan = 0, 0
		}
		rt.failAllPending(g, false)
		rt.notifyFailStop(g)
		return
	}
	// Rung 1 of the recovery ladder: a failure attributable to one
	// session of a session-bearing component evicts and replays just that
	// session. Unattributable failures take rung 2, the component reboot.
	if rt.tryMicroreboot(g, failFn, failArgs, "failure: "+reason, false, detectParent) {
		return
	}
	rt.beginReboot(g, "failure: "+reason, false, detectParent)
}

// beginReboot transitions a group into restoration. The old worker (if
// still alive) is killed; a fresh worker thread performs checkpoint
// restore and log replay before serving the mailbox again, so queued
// requests are delayed, not lost. parent anchors the reboot's trace
// span in the causal chain that triggered it (zero for an unanchored
// root).
func (rt *Runtime) beginReboot(g *group, reason string, killWorker bool, parent trace.SpanID) {
	g.rebooting = true
	g.rebootReason = reason
	g.rebootStartV = rt.clk.Elapsed()
	//vampos:allow detclock -- component-reboot latency is reported in wall time alongside virtual time (RebootRecord.WallDuration); the reading never feeds back into the simulation
	g.rebootStartW = time.Now()
	if tr := rt.tracer; tr != nil {
		// The reboot span opens at the same clock reading rebootStartV
		// captured, so the trace-derived duration and the RebootRecord
		// agree exactly.
		g.rebootSpan = tr.Begin(parent, trace.KindReboot, g.name, "", reason)
		g.quiesceSpan = tr.Begin(g.rebootSpan, trace.KindPhase, g.name, "", trace.PhaseQuiesce)
	}
	if killWorker && g.worker != nil && g.worker.t.State() != sched.StateDone {
		g.worker.t.Kill()
	}
	rt.spawnWorker(g, true)
}

// Reboot proactively reboots the named component (and, if merged, its
// whole group) from any application or driver thread: the software
// rejuvenation entry point. It waits for the group to go idle, performs
// the reboot, and returns once the group serves again.
func (c *Ctx) Reboot(name string) error {
	return c.rebootAs(name, "proactive")
}

// rebootAs is Reboot with an explicit RebootRecord reason, so adaptive
// rejuvenation ("rejuvenation") is distinguishable from manual proactive
// reboots ("proactive") in records, traces and oracles.
func (c *Ctx) rebootAs(name, reason string) error {
	rt := c.rt
	tc, ok := rt.comps[name]
	if !ok {
		return &UnknownComponentError{Name: name}
	}
	if !rt.cfg.MessagePassing {
		return fmt.Errorf("core: reboot of %q requires message passing (vanilla Unikraft can only reboot whole images)", name)
	}
	g := tc.group
	for _, m := range g.members {
		if m.desc.Unrebootable {
			return fmt.Errorf("%w: %s shares state with the host", ErrUnrebootable, m.desc.Name)
		}
	}
	if g.failedTwice {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	if c.comp != nil && c.comp.group == g {
		return fmt.Errorf("core: component %q cannot reboot itself", name)
	}
	// Wait until the group is between requests. Cooperative scheduling
	// makes the check-and-set race-free: nothing runs between the check
	// and beginReboot.
	for g.rebooting || g.currentSeq != 0 {
		c.th.Sleep(10 * time.Microsecond)
	}
	rt.beginReboot(g, reason, true, c.span)
	for g.rebooting {
		c.th.Sleep(10 * time.Microsecond)
	}
	if g.failedTwice {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	return nil
}

// restoreGroup rebuilds every member of a group on the new worker
// thread: memory image (checkpoint or cold init), encapsulated log
// replay in global sequence order, then runtime-state installation.
func (rt *Runtime) restoreGroup(t *sched.Thread, g *group) error {
	tr := rt.tracer
	var phaseSpan trace.SpanID
	if tr != nil {
		// The new worker's first dispatch ends quiescence and starts the
		// restore phase. Phases tile the reboot span exactly, so the
		// phase sum equals the reboot's total duration.
		tr.End(g.quiesceSpan)
		g.quiesceSpan = 0
		phaseSpan = tr.Begin(g.rebootSpan, trace.KindPhase, g.name, "", trace.PhaseRestore)
	}
	replayed := 0
	restoredPages := 0
	// Defense bookkeeping for this restore: the taint watermark honoured
	// (zero when none), the epoch seq actually restored for the tainted
	// member, images newly quarantined, and the archived record views
	// that re-enter replay because the live log no longer holds them.
	defPol := rt.cfg.Defense
	var taintW, restoredEpochSeq uint64
	var quarantinedNow int
	var taintedComps []*component
	var extraComps []*component
	var extraViews []msg.RecordView
	// Note: the group mailbox is untouched — requests queued during the
	// reboot are delayed, not lost (the Table V property).
	for _, c := range g.members {
		coldBoot := false
		// What the arena reflects from here on is governed by the log's own
		// seq bookkeeping (replayed records, epoch seq); the live-execution
		// high-water mark belongs to the dead incarnation.
		c.lastExecSeq = 0
		if defPol.Enabled && c.taint != nil && c.images != nil {
			// Taint-aware rollback: quarantine every image the watermark
			// poisons, then land on the newest image strictly predating it.
			// The suspect log tail is dropped — those calls ran against (or
			// after) a tampered arena and must not be replayed — and the
			// un-tainted slice that only the archive still holds re-enters
			// replay below.
			w := c.taint.Watermark
			n := c.images.QuarantineFrom(w)
			quarantinedNow += n
			rt.stats.quarantined.Add(uint64(n))
			sel, ok := c.images.SelectBefore(w)
			if !ok {
				return fmt.Errorf("core: taint rollback of %q: no retained checkpoint predates watermark %d (%d images quarantined)",
					c.desc.Name, w, c.images.QuarantinedCount())
			}
			c.checkpoint = sel.Image.(*checkpoint)
			c.domain.Log().DropFrom(w)
			c.domain.Log().RewindEpoch(sel.Meta.EpochSeq)
			// Purge the archive of the poisoned suffix the same way DropFrom
			// purged the live log: records at or past the watermark must
			// never re-enter any future replay either.
			kept := c.archive[:0]
			for _, v := range c.archive {
				if v.Seq < w {
					kept = append(kept, v)
				}
			}
			for i := len(kept); i < len(c.archive); i++ {
				c.archive[i] = msg.RecordView{}
			}
			c.archive = kept
			for _, v := range c.archive {
				if v.Seq > sel.Meta.EpochSeq {
					extraComps = append(extraComps, c)
					extraViews = append(extraViews, v)
				}
			}
			if taintW == 0 || w < taintW {
				taintW = w
				restoredEpochSeq = sel.Meta.EpochSeq
			}
			taintedComps = append(taintedComps, c)
			rt.stats.rollbacks.Add(1)
			if tr != nil {
				tr.Instant(g.rebootSpan, trace.KindDetect, c.desc.Name, "rollback",
					fmt.Sprintf("watermark=%d restored-epoch-seq=%d quarantined=%d detector=%s",
						w, sel.Meta.EpochSeq, n, c.taint.Detector))
			}
		}
		if c.desc.Stateful && c.checkpoint != nil {
			if err := rt.memry.Restore(c.checkpoint.memSnap); err != nil {
				return err
			}
			c.heap = c.checkpoint.heap.Clone()
			// Charge what the restore actually copies: the image's resident
			// pages. Absent pages restore as dropped frames (zeros) for
			// free, so a mostly-untouched arena no longer bills its full
			// span on every reboot.
			restoredPages += c.checkpoint.memSnap.Resident
			rt.charge(time.Duration(c.checkpoint.memSnap.Resident) * rt.costs.SnapshotPerPage)
			if ss, ok := c.comp.(StateSaver); ok && c.checkpoint.control != nil {
				if err := ss.RestoreState(c.checkpoint.control); err != nil {
					return fmt.Errorf("core: restore state of %q: %w", c.desc.Name, err)
				}
			}
		} else {
			// Cold re-initialisation: scrub the arena so no aged state
			// survives, then boot the component afresh.
			if err := rt.memry.Zero(c.heapBase, c.heapPages*mem.PageSize); err != nil {
				return err
			}
			heap, err := mem.NewBuddy(c.heapBase, int64(c.heapPages)*mem.PageSize)
			if err != nil {
				return err
			}
			c.heap = heap
			if cr, ok := c.comp.(ColdResetter); ok {
				cr.Reset()
			}
			rt.charge(rt.costs.ColdInit)
			coldBoot = true
			if defPol.Enabled && defPol.Rerandomize {
				// Cold members re-randomize before Init so even the boot
				// allocations land on a fresh layout.
				c.heap.Reseed(defense.RebootSeed(defPol.Seed, c.desc.Name, c.reboots.Load()))
			}
			ctx := &Ctx{rt: rt, comp: c, th: t, span: phaseSpan}
			if err := c.comp.Init(ctx); err != nil {
				return fmt.Errorf("core: re-init %q: %w", c.desc.Name, err)
			}
		}
		if defPol.Enabled && defPol.Rerandomize && !coldBoot {
			// Checkpoint-restored members keep their image's allocation map
			// (live blocks cannot move — the restored bytes hold pointers
			// into them), but every allocation from here on draws from this
			// reboot's seed: replay allocations, free-list evolution and
			// future block placement differ each incarnation, and the seed
			// itself is part of the layout fingerprint.
			c.heap.Reseed(defense.RebootSeed(defPol.Seed, c.desc.Name, c.reboots.Load()))
		}
	}
	if tr != nil {
		tr.End(phaseSpan)
		phaseSpan = tr.Begin(g.rebootSpan, trace.KindPhase, g.name, "", trace.PhaseReplay)
	}
	// Encapsulated restoration: replay each member's retained log in
	// global sequence order so cross-member orderings inside a merged
	// group are preserved.
	type replayItem struct {
		c *component
		v msg.RecordView
	}
	var items []replayItem
	for _, c := range g.members {
		if !c.desc.Stateful {
			continue
		}
		views, err := c.domain.Log().Entries()
		if err != nil {
			return err
		}
		cover := c.domain.Log().EpochSeq()
		for _, v := range views {
			if v.Seq <= cover {
				// Already in the restored image: a record that was still open
				// when its covering truncation ran closes into the log below
				// the epoch seq; replaying it would double-apply the call.
				continue
			}
			items = append(items, replayItem{c: c, v: v})
		}
	}
	// Archived records re-entering replay after a rollback: the slice
	// between the restored (older) image and the watermark that the live
	// log no longer holds. The global sort below interleaves them with
	// the retained tail in original sequence order.
	for i, c := range extraComps {
		items = append(items, replayItem{c: c, v: extraViews[i]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].v.Seq < items[j].v.Seq })
	for i := range items {
		it := items[i]
		h, ok := it.c.exports[it.v.Fn]
		if !ok {
			return &UnknownFunctionError{Component: it.c.desc.Name, Fn: it.v.Fn}
		}
		rs := &replayState{grp: g, rec: &items[i].v}
		ctx := &Ctx{rt: rt, comp: it.c, th: t, replay: rs, span: phaseSpan}
		rets, err, pv, panicked := rt.invoke(h, ctx, it.v.Args)
		if panicked {
			return fmt.Errorf("core: replay of %s.%s panicked: %v", it.c.desc.Name, it.v.Fn, pv)
		}
		if de, ok := err.(*ReplayDivergenceError); ok {
			return de
		}
		if rs.diverged != nil {
			// The component issued a call the log cannot answer — even if
			// it swallowed the error, the restored state is untrusted.
			return rs.diverged
		}
		if rt.cfg.ReplayRetCheck && !it.v.Synthetic && it.v.Class != msg.ClassCanceler {
			// Opt-in determinism oracle: a replayed call must reproduce the
			// results the original produced, or the restored state cannot
			// be trusted. Synthetic records are exempt — they are
			// state-install commands, not calls with a logged outcome.
			// Cancelers are exempt too: they stay in the log only to
			// reproduce resource numbering, and when the session they close
			// was created on the unlogged data path (an accepted
			// connection) replay legitimately answers "already gone" —
			// idempotent dissolution, not corruption.
			if de := replayRetDivergence(it.c.desc.Name, &it.v, rets, err); de != nil {
				if tr != nil {
					tr.Instant(phaseSpan, trace.KindDetect, it.c.desc.Name, "replay-divergence", de.Error())
				}
				return de
			}
		}
		rt.charge(rt.costs.ReplayPerEntry)
		it.c.domain.Log().MarkReplayed(1)
		// Replay is execution: the arena now reflects this call, and the
		// next checkpoint (the post-rollback re-square in particular, whose
		// replayed tail may live only in the archive) must cover it.
		it.c.lastExecSeq = it.v.Seq
		replayed++
	}
	if tr != nil {
		tr.End(phaseSpan)
		phaseSpan = tr.Begin(g.rebootSpan, trace.KindPhase, g.name, "", trace.PhaseResume)
	}
	// Runtime data that replay cannot regenerate (LWIP seq/ACK numbers).
	for _, c := range g.members {
		rk, ok := c.comp.(RuntimeKeeper)
		if !ok || c.runtimeState == nil {
			continue
		}
		ctx := &Ctx{rt: rt, comp: c, th: t, span: phaseSpan}
		if err := rk.InstallRuntimeState(ctx, c.runtimeState); err != nil {
			return fmt.Errorf("core: install runtime state of %q: %w", c.desc.Name, err)
		}
	}
	// Defense epilogue: re-square every tainted member around the
	// rolled-back state — a fresh capture at this quiescent point becomes
	// the new latest image (ranked below the quarantined ones by epoch
	// seq), the replayed prefix folds into it, and a fresh seal makes the
	// post-tamper host stamps the new clean baseline. Then fingerprint
	// every member's (re-randomized) arena layout.
	for _, c := range taintedComps {
		if err := rt.checkpointComponent(c); err != nil {
			return fmt.Errorf("core: post-rollback checkpoint of %q: %w", c.desc.Name, err)
		}
		c.taint = nil
		rt.captureSeal(c)
	}
	var fps []uint64
	if defPol.Enabled {
		fps = make([]uint64, len(g.members))
		for i, c := range g.members {
			fp := c.heap.Fingerprint()
			c.layoutFP.Store(fp)
			fps[i] = fp
		}
	}
	names := make([]string, len(g.members))
	for i, c := range g.members {
		c.reboots.Add(1)
		names[i] = c.desc.Name
	}
	rt.recMu.Lock()
	rt.reboots = append(rt.reboots, RebootRecord{
		Group:           g.name,
		Components:      names,
		Reason:          g.rebootReason,
		VirtualDuration: rt.clk.Elapsed() - g.rebootStartV,
		//vampos:allow detclock -- closes the wall-time measurement opened in beginReboot; presentation-only
		WallDuration:       time.Since(g.rebootStartW),
		ReplayedEntries:    replayed,
		RestoredPages:      restoredPages,
		At:                 rt.clk.Now(),
		TaintWatermark:     taintW,
		RestoredEpochSeq:   restoredEpochSeq,
		QuarantinedImages:  quarantinedNow,
		LayoutFingerprints: fps,
	})
	rt.recMu.Unlock()
	// Rung-2 reconciliation: the encapsulated replay rebuilt every
	// session the log preserved, so escalated/recovering sub-resources
	// observe Live again.
	for _, c := range g.members {
		rt.sessions.ComponentRecovered(c.desc.Name)
	}
	if tr != nil {
		// Close resume and the reboot at the same clock reading the
		// RebootRecord captured: the trace-derived timeline and the
		// record can never disagree.
		tr.End(phaseSpan)
		tr.EndErr(g.rebootSpan, "ok")
		g.rebootSpan = 0
	}
	return nil
}

// replayRetDivergence compares a replayed call's outcome against the
// logged one, byte-for-byte over the encoded results. Encoding both
// sides through the message codec sidesteps any-typed comparison
// pitfalls (ints decoded as their original widths, []byte identity):
// two results are the same iff they transport the same.
func replayRetDivergence(comp string, v *msg.RecordView, rets msg.Args, err error) *ReplayDivergenceError {
	de := &ReplayDivergenceError{Component: comp, WantFn: v.Fn, GotFn: v.Fn, RetMismatch: true, Seq: v.Seq}
	if got := errnoString(err); got != v.Err {
		de.Detail = fmt.Sprintf("logged error %q, replay returned %q", v.Err, got)
		return de
	}
	wantB, werr := msg.EncodeArgs(v.Rets)
	gotB, gerr := msg.EncodeArgs(rets)
	if werr != nil || gerr != nil {
		de.Detail = fmt.Sprintf("result encoding failed (logged: %v, replay: %v)", werr, gerr)
		return de
	}
	if !bytes.Equal(wantB, gotB) {
		de.Detail = fmt.Sprintf("logged rets %v, replay produced %v", v.Rets, rets)
		return de
	}
	return nil
}

// watchdogLoop is the hang detector: a component whose current call has
// been processing longer than the threshold is declared hung and
// rebooted (paper §V-A, threshold 1.0 s).
func (rt *Runtime) watchdogLoop(t *sched.Thread) {
	for !rt.stopped {
		t.Sleep(rt.cfg.WatchdogPeriod)
		if rt.cfg.MaxVirtualTime > 0 && rt.clk.Elapsed() > rt.cfg.MaxVirtualTime {
			rt.Stop()
			return
		}
		nowV := rt.clk.Elapsed()
		for _, g := range rt.groups {
			if g.rebooting || g.failedTwice || g.currentSeq == 0 {
				continue
			}
			if nowV-g.busySinceV <= rt.cfg.HangThreshold {
				continue
			}
			// Hang attribution: a group whose current handler is blocked
			// on an outstanding call into another group is a victim of
			// downstream latency, not hung itself. Skip it — the deepest
			// busy group trips the detector and only that one reboots,
			// keeping hang recovery contained to the faulty component.
			// (A true wait cycle can never form: calls only flow along
			// the dependency order, so the deepest group has no
			// outstanding downstream call and is always detected.)
			if rt.awaitingDownstream(g) {
				continue
			}
			rt.stats.hangs.Add(1)
			seq := g.currentSeq
			victim := g.members[0]
			if pc := rt.pending[seq]; pc != nil {
				victim = pc.to
			}
			victim.failures.Add(1)
			var detectParent trace.SpanID
			if pc := rt.pending[seq]; pc != nil {
				detectParent = pc.span
			}
			if tr := rt.tracer; tr != nil {
				tr.Instant(detectParent, trace.KindDetect, victim.desc.Name, "hang",
					fmt.Sprintf("busy %v > threshold %v", nowV-g.busySinceV, rt.cfg.HangThreshold))
			}
			if rt.onComponentFailure != nil {
				rt.onComponentFailure(victim.desc.Name, "hang")
			}
			var failFn string
			var failArgs msg.Args
			if pc := rt.pending[seq]; pc != nil && !pc.done {
				failFn, failArgs = pc.fn, pc.args
				if pc.rec != nil {
					victim.domain.Log().DropRecord(pc.rec)
					pc.rec = nil
				}
				pc.rebooted = true
				rt.finishCall(pc, nil, "")
			}
			g.currentSeq = 0
			g.curRec = nil
			g.curLog = nil
			// Hangs attribute to sessions the same way crashes do; the
			// stuck worker is killed either way.
			if !rt.tryMicroreboot(g, failFn, failArgs, "hang", true, detectParent) {
				rt.beginReboot(g, "hang", true, detectParent)
			}
			// One hang per sweep: resolving this group's inbound call wakes
			// blocked callers, but they only re-enter awaitingDownstream
			// state once scheduled. Deferring further verdicts to the next
			// sweep (one period away, well under the threshold) keeps those
			// callers from being misattributed as hung themselves.
			break
		}
	}
}

// awaitingDownstream reports whether the group's current handler has an
// outstanding call into another group still in flight. Such a group is
// blocked, not hung: the watchdog must attribute the hang to the
// deepest busy group only.
func (rt *Runtime) awaitingDownstream(g *group) bool {
	//vampos:allow detrange -- pure existence test: any-match over the pending set is the same boolean in every iteration order, and nothing else runs in the body
	for _, pc := range rt.pending {
		if !pc.done && pc.fromGrp == g && pc.to.group != g {
			return true
		}
	}
	return false
}

// SetFailureObserver registers fn to be told about every detected
// component failure (experiments use it to timestamp injections).
func (rt *Runtime) SetFailureObserver(fn func(component, reason string)) {
	rt.onComponentFailure = fn
}
