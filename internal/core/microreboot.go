package core

import (
	"errors"
	"fmt"
	"time"

	"vampos/internal/microreboot"
	"vampos/internal/msg"
	"vampos/internal/sched"
	"vampos/internal/trace"
)

// SessionStatus is the reconciliation state of one session sub-resource
// (re-exported from internal/microreboot for runtime consumers).
type SessionStatus = microreboot.Status

// SessionRegistryStats is the session registry's accounting.
type SessionRegistryStats = microreboot.Stats

// ErrMicrorebootEscalated reports that a requested session microreboot
// could not complete at the session rung and was escalated to a
// whole-component reboot (which succeeded — a failed escalation surfaces
// as ErrComponentFailed instead).
var ErrMicrorebootEscalated = errors.New("core: session microreboot escalated to component reboot")

// MicrorebootRecord describes one completed session microreboot — rung 1
// of the recovery ladder: one session's state evicted from the live
// component and rebuilt by replaying its surviving log slice while every
// other session kept serving.
type MicrorebootRecord struct {
	Component       string
	Session         string
	Reason          string
	VirtualDuration time.Duration
	WallDuration    time.Duration
	ReplayedEntries int
	At              time.Time
}

// microTask carries one in-flight session microreboot from the message
// thread (or a proactive caller) to the group's fresh worker thread,
// which performs the evict + session-slice replay.
type microTask struct {
	comp    *component
	session msg.SessionID
	reason  string
	startV  time.Duration
	startW  time.Time
	// span is the KindMicroreboot trace span; phaseSpan the currently
	// open KindPhase child. Both zero when tracing is off.
	span      trace.SpanID
	phaseSpan trace.SpanID
}

// attributeSession decides whether a detected failure of group g, struck
// while executing fn(args), can be recovered at the session rung. The
// conditions are deliberately conservative — anything not provably
// session-local escalates to the component rung:
//
//   - the configuration opted in (Config.Microreboot);
//   - the group is a singleton: inside a merged group a replayed call to
//     a co-member runs directly with the replay context attached, so it
//     would consult the wrong record's ReplayRets — merged groups always
//     recover at component granularity;
//   - the component is stateful (stateless ones re-init, which is
//     already cheap) and rebootable;
//   - it implements both SessionResolver (to name the session) and
//     SessionEvictor (to remove its live state);
//   - the resolver attributes the call to a session — openers and
//     non-session calls return "" and escalate;
//   - the log holds a live opener for that session, so replaying its
//     slice can actually rebuild it.
func (rt *Runtime) attributeSession(g *group, fn string, args msg.Args) (*component, msg.SessionID, bool) {
	if !rt.cfg.Microreboot || len(g.members) != 1 || fn == "" {
		return nil, "", false
	}
	c := g.members[0]
	if !c.desc.Stateful || c.desc.Unrebootable {
		return nil, "", false
	}
	res, okR := c.comp.(SessionResolver)
	_, okE := c.comp.(SessionEvictor)
	if !okR || !okE {
		return nil, "", false
	}
	session := res.SessionOf(fn, args)
	if session == "" {
		return nil, "", false
	}
	if !c.domain.Log().HasLiveOpener(session) {
		return nil, "", false
	}
	return c, session, true
}

// tryMicroreboot attempts rung-1 recovery for a detected failure. It
// returns false when the failure cannot be attributed to one session, in
// which case the caller proceeds with the component reboot (rung 2).
// Runs on the message thread (crash path) or the watchdog (hang path).
func (rt *Runtime) tryMicroreboot(g *group, fn string, args msg.Args, reason string, killWorker bool, parent trace.SpanID) bool {
	c, session, ok := rt.attributeSession(g, fn, args)
	if !ok {
		return false
	}
	if err := rt.sessions.BeginRecovery(c.desc.Name, string(session), reason); err != nil {
		// The registry refuses (session already recovering/escalated):
		// stacking recoveries is unsound, move up the ladder.
		return false
	}
	rt.beginMicroreboot(g, c, session, reason, killWorker, parent)
	return true
}

// beginMicroreboot transitions a group into session-granular
// restoration: the fresh worker evicts the session and replays its log
// slice instead of restoring the whole group. Mirrors beginReboot —
// queued requests are delayed, not lost.
func (rt *Runtime) beginMicroreboot(g *group, c *component, session msg.SessionID, reason string, killWorker bool, parent trace.SpanID) {
	g.rebooting = true
	task := &microTask{
		comp: c, session: session, reason: reason,
		startV: rt.clk.Elapsed(),
	}
	//vampos:allow detclock -- microreboot latency is reported in wall time alongside virtual time (MicrorebootRecord.WallDuration); the reading never feeds back into the simulation
	task.startW = time.Now()
	if tr := rt.tracer; tr != nil {
		task.span = tr.Begin(parent, trace.KindMicroreboot, c.desc.Name, "", string(session))
		task.phaseSpan = tr.Begin(task.span, trace.KindPhase, g.name, "", trace.PhaseQuiesce)
	}
	g.micro = task
	if killWorker && g.worker != nil && g.worker.t.State() != sched.StateDone {
		g.worker.t.Kill()
	}
	rt.spawnWorker(g, true)
}

// microrebootGroup performs rung-1 recovery on the group's new worker
// thread: evict the faulted session's live state, then replay its
// surviving log slice (opener, durables, open transient tail — exactly
// what the session-aware shrinker preserves) against the running
// component. Outbound calls during replay feed from the logged results,
// so downstream components are never disturbed. An error escalates to a
// whole-component reboot.
func (rt *Runtime) microrebootGroup(t *sched.Thread, g *group, task *microTask) error {
	tr := rt.tracer
	c := task.comp
	if tr != nil {
		// The new worker's first dispatch ends quiescence; phases tile
		// the microreboot span the way reboot phases tile KindReboot.
		tr.End(task.phaseSpan)
		task.phaseSpan = tr.Begin(task.span, trace.KindPhase, g.name, "", trace.PhaseEvict)
	}
	ev, ok := c.comp.(SessionEvictor)
	if !ok {
		return fmt.Errorf("core: %q lost its session evictor", c.desc.Name)
	}
	ctx := &Ctx{rt: rt, comp: c, th: t, span: task.phaseSpan}
	if err := ev.EvictSession(ctx, task.session); err != nil {
		return fmt.Errorf("core: evict %s/%s: %w", c.desc.Name, task.session, err)
	}
	if tr != nil {
		tr.End(task.phaseSpan)
		task.phaseSpan = tr.Begin(task.span, trace.KindPhase, g.name, "", trace.PhaseReplay)
	}
	views, err := c.domain.Log().SessionEntries(task.session)
	if err != nil {
		return err
	}
	replayed := 0
	for i := range views {
		v := &views[i]
		h, ok := c.exports[v.Fn]
		if !ok {
			return &UnknownFunctionError{Component: c.desc.Name, Fn: v.Fn}
		}
		rs := &replayState{grp: g, rec: v}
		rctx := &Ctx{rt: rt, comp: c, th: t, replay: rs, span: task.phaseSpan}
		rets, herr, pv, panicked := rt.invoke(h, rctx, v.Args)
		if panicked {
			return fmt.Errorf("core: session replay of %s.%s panicked: %v", c.desc.Name, v.Fn, pv)
		}
		if de, ok := herr.(*ReplayDivergenceError); ok {
			return de
		}
		if rs.diverged != nil {
			return rs.diverged
		}
		if rt.cfg.ReplayRetCheck && !v.Synthetic && v.Class != msg.ClassCanceler {
			// Same determinism oracle and exemptions as restoreGroup.
			if de := replayRetDivergence(c.desc.Name, v, rets, herr); de != nil {
				if tr != nil {
					tr.Instant(task.phaseSpan, trace.KindDetect, c.desc.Name, "replay-divergence", de.Error())
				}
				return de
			}
		}
		rt.charge(rt.costs.ReplayPerEntry)
		c.domain.Log().MarkReplayed(1)
		replayed++
	}
	if tr != nil {
		tr.End(task.phaseSpan)
		task.phaseSpan = tr.Begin(task.span, trace.KindPhase, g.name, "", trace.PhaseResume)
	}
	// No checkpoint restore, no runtime-state reinstall: the component
	// never went down — only the one session was rebuilt.
	if err := rt.sessions.Resolve(c.desc.Name, string(task.session)); err != nil {
		return err
	}
	rt.stats.microreboots.Add(1)
	c.micro.Add(1)
	rt.recMu.Lock()
	rt.microreboots = append(rt.microreboots, MicrorebootRecord{
		Component:       c.desc.Name,
		Session:         string(task.session),
		Reason:          task.reason,
		VirtualDuration: rt.clk.Elapsed() - task.startV,
		//vampos:allow detclock -- closes the wall-time measurement opened in beginMicroreboot; presentation-only
		WallDuration:    time.Since(task.startW),
		ReplayedEntries: replayed,
		At:              rt.clk.Now(),
	})
	rt.recMu.Unlock()
	if tr != nil {
		tr.End(task.phaseSpan)
		tr.EndErr(task.span, "ok")
	}
	return nil
}

// escalateMicro abandons a failed rung-1 attempt and sets the group up
// for the component reboot (rung 2) that follows on the same worker. The
// reboot is bookkept from the microreboot's start, so rung-2 latency
// honestly includes the failed rung-1 attempt; its trace span is a child
// of the escalated microreboot span, preserving the causal chain.
func (rt *Runtime) escalateMicro(g *group, task *microTask, cause error) {
	rt.stats.microEscalations.Add(1)
	// Best-effort: the registry may refuse if the entry was never
	// registered, which cannot happen on this path, but stay nil-safe.
	_ = rt.sessions.Escalate(task.comp.desc.Name, string(task.session), cause.Error())
	g.rebootReason = fmt.Sprintf("%s (escalated from session %s: %v)", task.reason, task.session, cause)
	g.rebootStartV = task.startV
	g.rebootStartW = task.startW
	if tr := rt.tracer; tr != nil {
		tr.End(task.phaseSpan)
		tr.EndErr(task.span, "escalated: "+cause.Error())
		g.rebootSpan = tr.Begin(task.span, trace.KindReboot, g.name, "", g.rebootReason)
		g.quiesceSpan = tr.Begin(g.rebootSpan, trace.KindPhase, g.name, "", trace.PhaseQuiesce)
	}
}

// Microreboots returns the completed session-microreboot records in
// order. Safe to call from any goroutine.
func (rt *Runtime) Microreboots() []MicrorebootRecord {
	rt.recMu.Lock()
	defer rt.recMu.Unlock()
	out := make([]MicrorebootRecord, len(rt.microreboots))
	copy(out, rt.microreboots)
	return out
}

// Sessions returns the session sub-resource snapshot of the registry
// (nil slice when the Microreboot config is off).
func (rt *Runtime) Sessions() []SessionStatus {
	return rt.sessions.Snapshot()
}

// SessionStats returns the session registry's accounting (zero when the
// Microreboot config is off).
func (rt *Runtime) SessionStats() SessionRegistryStats {
	return rt.sessions.Stats()
}

// MicrorebootSession proactively microreboots one session of the named
// component: evict its live state and rebuild it from the log while the
// component keeps serving every other session. The preconditions mirror
// the failure-path attribution; an attempt that escalates returns
// ErrMicrorebootEscalated after the component reboot completes.
func (c *Ctx) MicrorebootSession(name, session string) error {
	rt := c.rt
	tc, ok := rt.comps[name]
	if !ok {
		return &UnknownComponentError{Name: name}
	}
	if !rt.cfg.MessagePassing || !rt.cfg.Microreboot {
		return fmt.Errorf("core: session microreboot of %q requires the Microreboot configuration", name)
	}
	g := tc.group
	if len(g.members) != 1 {
		return fmt.Errorf("core: %q is merged into %s; session microreboots need a singleton group", name, g.name)
	}
	if tc.desc.Unrebootable {
		return fmt.Errorf("%w: %s shares state with the host", ErrUnrebootable, name)
	}
	if g.failedTwice {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	if c.comp != nil && c.comp.group == g {
		return fmt.Errorf("core: component %q cannot microreboot its own session", name)
	}
	if _, okE := tc.comp.(SessionEvictor); !okE || !tc.desc.Stateful {
		return fmt.Errorf("core: %q does not support session eviction", name)
	}
	sid := msg.SessionID(session)
	// Wait until the group is between requests; cooperative scheduling
	// makes the check-and-set race-free (cf. rebootAs).
	for g.rebooting || g.currentSeq != 0 {
		c.th.Sleep(10 * time.Microsecond)
	}
	if !tc.domain.Log().HasLiveOpener(sid) {
		return fmt.Errorf("core: %s/%s has no live opener in the log", name, session)
	}
	if err := rt.sessions.BeginRecovery(name, session, "proactive"); err != nil {
		return err
	}
	rt.recMu.Lock()
	before := len(rt.microreboots)
	rt.recMu.Unlock()
	rt.beginMicroreboot(g, tc, sid, "proactive", true, c.span)
	for g.rebooting {
		c.th.Sleep(10 * time.Microsecond)
	}
	if g.failedTwice {
		return fmt.Errorf("%w: %s", ErrComponentFailed, name)
	}
	rt.recMu.Lock()
	after := len(rt.microreboots)
	rt.recMu.Unlock()
	if after == before {
		return fmt.Errorf("%w: %s/%s", ErrMicrorebootEscalated, name, session)
	}
	return nil
}
