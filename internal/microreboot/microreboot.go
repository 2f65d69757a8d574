// Package microreboot models session-granular recovery as a
// reconciliation problem, per Candea's microreboot work: the cheapest
// recovery is the smallest one. Every session of a session-bearing
// component (an open file, a socket, a 9P fid) is a sub-resource with a
// declared desired state and an observed status. Normal operation keeps
// the two equal (Live); a fault attributable to the session moves the
// observed status to Recovering while the runtime evicts the session's
// state and replays its surviving log slice; reconciliation either
// restores Live or gives up at this granularity (Escalated) and hands
// the failure to the next rung of the recovery ladder.
//
// The package holds no component state and performs no recovery itself —
// internal/core drives the actual evict/replay — so it stays
// dependency-light and reusable by the cluster coordinator, which
// extends the same ladder across instances.
package microreboot

import (
	"fmt"
	"sort"
	//vampos:allow schedonly -- Registry.mu: Runtime.Sessions/SessionStats snapshot the registry from campaign worker goroutines while simulated threads observe openers and resolve or escalate recoveries
	"sync"
	"time"
)

// Phase is a session sub-resource lifecycle state.
type Phase uint8

// The lifecycle states. Desired state is always Live or Dissolved;
// Recovering and Escalated are observed-only.
const (
	// Live: the session is serving; desired and observed agree.
	Live Phase = iota + 1
	// Recovering: a fault was attributed to this session and a
	// microreboot (evict + session-slice replay) is in progress.
	Recovering
	// Dissolved: the session's canceler ran; the sub-resource is gone by
	// design, not by failure.
	Dissolved
	// Escalated: session-granular recovery was refused or failed; the
	// failure moved up the ladder to a whole-component reboot.
	Escalated
)

func (p Phase) String() string {
	switch p {
	case Live:
		return "live"
	case Recovering:
		return "recovering"
	case Dissolved:
		return "dissolved"
	case Escalated:
		return "escalated"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// Rung identifies one level of the four-rung recovery ladder, smallest
// first. Rungs 1–2 live in internal/core, rung 3 in internal/cluster,
// rung 4 is core's whole-image FullRestart.
type Rung uint8

// The ladder, in escalation order.
const (
	// RungSession: evict one session and replay its log slice while the
	// component keeps serving every other session.
	RungSession Rung = iota + 1
	// RungComponent: reboot the whole component group — checkpoint
	// restore plus encapsulated log replay.
	RungComponent
	// RungInstance: kill the member instance and resync it from peers
	// (cluster deployments only).
	RungInstance
	// RungRestart: restart the whole image; nothing is restored.
	RungRestart
)

func (r Rung) String() string {
	switch r {
	case RungSession:
		return "session-microreboot"
	case RungComponent:
		return "component-reboot"
	case RungInstance:
		return "instance-kill"
	case RungRestart:
		return "full-restart"
	default:
		return fmt.Sprintf("Rung(%d)", uint8(r))
	}
}

// Key identifies one session sub-resource.
type Key struct {
	Component string
	Session   string
}

// Status is the reconciliation state of one session sub-resource.
type Status struct {
	Key
	// Desired is the declared goal state: Live while the session is
	// open, Dissolved once its canceler runs.
	Desired Phase
	// Observed is the current state the runtime has reconciled to.
	Observed Phase
	// Generation counts transitions of this sub-resource.
	Generation uint64
	// Recoveries counts successful session microreboots.
	Recoveries int
	// Reason is the last transition's cause (fault reason, "opener",
	// escalation error).
	Reason string
	// Since is the virtual time of the last transition.
	Since time.Duration
}

// Stats is the registry-wide accounting.
type Stats struct {
	// Observed counts sessions ever registered (openers).
	Observed uint64
	// Dissolved counts sessions removed by their cancelers.
	Dissolved uint64
	// Recovered counts successful session microreboots.
	Recovered uint64
	// Escalated counts microreboots that gave up to the next rung.
	Escalated uint64
	// Transitions counts every state change.
	Transitions uint64
	// Live is the current number of tracked sub-resources.
	Live int
}

// Registry tracks every live session sub-resource of one runtime. It is
// not goroutine-safe: the runtime drives it from the message thread and
// worker threads under the cooperative scheduler's single baton.
//
// Dissolved sub-resources are counted and dropped rather than retained:
// session ids are monotonically increasing resource numbers, so keeping
// terminal entries would grow without bound under sustained open/close
// load — the same pressure the log's closed-mark purge relieves.
type Registry struct {
	// mu guards m and stats: simulated threads transition entries while
	// observers outside the scheduler take snapshots.
	mu    sync.Mutex
	now   func() time.Duration // virtual clock, injected for determinism
	m     map[Key]*Status
	stats Stats
}

// NewRegistry builds a registry on a virtual-clock reading. A nil now
// is allowed (timestamps stay zero).
func NewRegistry(now func() time.Duration) *Registry {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Registry{now: now, m: make(map[Key]*Status)}
}

func (r *Registry) transition(s *Status, observed Phase, reason string) {
	s.Observed = observed
	s.Generation++
	s.Reason = reason
	s.Since = r.now()
	r.stats.Transitions++
}

// Observe registers a session as Live — called when its opener is
// classified at the interposition layer. Re-observing an existing key
// (resource-number reuse, or a session reborn by a component reboot)
// resets it to Live.
func (r *Registry) Observe(component, session string) {
	if r == nil || session == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := Key{Component: component, Session: session}
	s, ok := r.m[k]
	if !ok {
		s = &Status{Key: k, Desired: Live}
		r.m[k] = s
		r.stats.Observed++
	}
	s.Desired = Live
	r.transition(s, Live, "opener")
}

// Dissolve removes a session — its canceler ran. Dissolution is a
// desired-state change, not a failure: the entry is counted and
// dropped.
func (r *Registry) Dissolve(component, session string) {
	if r == nil || session == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := Key{Component: component, Session: session}
	if _, ok := r.m[k]; !ok {
		return
	}
	delete(r.m, k)
	r.stats.Dissolved++
	r.stats.Transitions++
}

// BeginRecovery moves a session from Live to Recovering. A session the
// registry never saw (its opener predates the registry) is registered
// on the fly. Beginning recovery on a session already Recovering,
// Escalated, or desired-Dissolved is invalid and returns an error — the
// caller must escalate instead.
func (r *Registry) BeginRecovery(component, session, reason string) error {
	if r == nil {
		return fmt.Errorf("microreboot: no registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	k := Key{Component: component, Session: session}
	s, ok := r.m[k]
	if !ok {
		s = &Status{Key: k, Desired: Live, Observed: Live}
		r.m[k] = s
		r.stats.Observed++
	}
	if s.Desired != Live {
		return fmt.Errorf("microreboot: %s/%s desired state is %s", component, session, s.Desired)
	}
	if s.Observed != Live {
		return fmt.Errorf("microreboot: %s/%s is %s, not live", component, session, s.Observed)
	}
	r.transition(s, Recovering, reason)
	return nil
}

// Resolve completes a recovery: Recovering back to Live.
func (r *Registry) Resolve(component, session string) error {
	if r == nil {
		return fmt.Errorf("microreboot: no registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[Key{Component: component, Session: session}]
	if !ok || s.Observed != Recovering {
		return fmt.Errorf("microreboot: %s/%s is not recovering", component, session)
	}
	s.Recoveries++
	r.stats.Recovered++
	r.transition(s, Live, "recovered")
	return nil
}

// Escalate abandons session-granular recovery: Recovering to Escalated.
// The sub-resource stays tracked so the ladder's next rung can
// reconcile it (ComponentRecovered).
func (r *Registry) Escalate(component, session, reason string) error {
	if r == nil {
		return fmt.Errorf("microreboot: no registry")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[Key{Component: component, Session: session}]
	if !ok || s.Observed != Recovering {
		return fmt.Errorf("microreboot: %s/%s is not recovering", component, session)
	}
	r.stats.Escalated++
	r.transition(s, Escalated, reason)
	return nil
}

// ComponentRecovered reconciles every sub-resource of a component after
// a whole-component reboot: the encapsulated replay rebuilt every
// session the log preserved, so desired-Live sessions observe Live
// again regardless of how they entered the reboot.
func (r *Registry) ComponentRecovered(component string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	//vampos:allow detrange -- per-session transitions commute: each touches only its own Status fields plus a counter, and Since reads the same registry clock for the whole sweep
	for _, s := range r.m {
		if s.Component != component || s.Desired != Live || s.Observed == Live {
			continue
		}
		r.transition(s, Live, "component-reboot")
	}
}

// Get returns one sub-resource's status.
func (r *Registry) Get(component, session string) (Status, bool) {
	if r == nil {
		return Status{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.m[Key{Component: component, Session: session}]
	if !ok {
		return Status{}, false
	}
	return *s, true
}

// Snapshot returns every tracked sub-resource, sorted by component then
// session for deterministic iteration.
func (r *Registry) Snapshot() []Status {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, 0, len(r.m))
	for _, s := range r.m {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Component != out[j].Component {
			return out[i].Component < out[j].Component
		}
		return out[i].Session < out[j].Session
	})
	return out
}

// Stats returns the registry-wide accounting.
func (r *Registry) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.stats
	st.Live = len(r.m)
	return st
}
