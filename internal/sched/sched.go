// Package sched implements the cooperative single-CPU thread scheduler
// underneath VampOS.
//
// The paper's unikernel prototype runs all component threads on one vCPU
// under Unikraft's cooperative scheduler, and its entire overhead model is
// "one cross-component message costs scheduler dispatches" (§V-A, §V-C).
// A preemptive Go runtime would hide that cost structure, so this package
// serialises execution: every simulated thread is a goroutine, but a baton
// guarantees exactly one is runnable at any instant, and control returns
// to the scheduler at every yield, block, sleep, or exit.
//
// When no thread is ready the scheduler advances the virtual clock to the
// next pending timer, making the whole system a deterministic
// discrete-event simulation.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"vampos/internal/clock"
	"vampos/internal/mem"
)

// State is a thread's lifecycle state.
type State uint8

// Thread states.
const (
	StateNew State = iota + 1
	StateReady
	StateRunning
	StateBlocked
	StateSleeping
	StateDone
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateSleeping:
		return "sleeping"
	case StateDone:
		return "done"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// ErrDeadlock is returned by Run when no thread is ready, no timer is
// pending, and Stop was not requested.
var ErrDeadlock = errors.New("sched: deadlock: no runnable thread and no pending timer")

// killSentinel unwinds a killed thread's goroutine; the thread wrapper
// recovers it. It must never be swallowed outside this package.
type killSentinel struct{ t *Thread }

// IsKill reports whether a recovered panic value is the scheduler's
// kill-unwind sentinel. Code that recovers panics inside a simulated
// thread (e.g. the component failure detector) must re-panic such values
// so a Kill can finish unwinding the thread.
func IsKill(r any) bool {
	_, ok := r.(killSentinel)
	return ok
}

// Stats counts scheduler activity; the benchmarks report Dispatches as
// the "component transitions" figure the paper quotes per system call.
type Stats struct {
	Dispatches    uint64
	ClockAdvances uint64
	Spawned       uint64
	Killed        uint64
}

// Scheduler owns all simulated threads and the virtual clock.
type Scheduler struct {
	clk     *clock.Virtual
	policy  Policy
	threads []*Thread
	nextID  int
	current *Thread
	yielded chan struct{}
	stopped bool
	stats   Stats
	// memory backs thread accessors (nil when the simulation does not
	// model guest memory, e.g. in scheduler unit tests).
	memory *mem.Memory
	// dispatchCost is virtual time charged per dispatch (context-switch
	// cost in the experiment cost model).
	dispatchCost time.Duration
	// onDispatch, if set, observes every dispatch (flight recorder).
	onDispatch func(*Thread)
}

// SetDispatchObserver installs fn to run on every thread dispatch, on
// the scheduler goroutine, just before control transfers. Pass nil to
// remove. The flight recorder uses it for dispatch-level traces.
func (s *Scheduler) SetDispatchObserver(fn func(*Thread)) { s.onDispatch = fn }

// SetDispatchCost charges d of virtual time on every thread dispatch,
// modelling the context-switch cost the paper's message passing pays per
// hop. Zero disables charging.
func (s *Scheduler) SetDispatchCost(d time.Duration) { s.dispatchCost = d }

// New creates a scheduler over the given virtual clock using policy.
func New(clk *clock.Virtual, policy Policy) *Scheduler {
	if clk == nil {
		panic("sched: nil clock")
	}
	if policy == nil {
		policy = NewRoundRobin()
	}
	return &Scheduler{
		clk:     clk,
		policy:  policy,
		yielded: make(chan struct{}),
	}
}

// Clock returns the scheduler's virtual clock.
func (s *Scheduler) Clock() *clock.Virtual { return s.clk }

// Stats returns a copy of the scheduler counters.
func (s *Scheduler) Stats() Stats { return s.stats }

// Policy returns the active scheduling policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// Current returns the running thread, or nil outside Run.
func (s *Scheduler) Current() *Thread { return s.current }

// Thread is one cooperative thread of execution.
type Thread struct {
	sched  *Scheduler
	id     int
	name   string
	state  State
	resume chan struct{}
	fn     func(*Thread)
	pkru   mem.PKRU
	acc    *mem.Accessor

	killed      bool
	panicVal    any // non-nil when fn ended by panic (not a kill)
	dispatches  uint64
	wakeTimer   *clock.Timer
	blockReason string
	sleepFor    time.Duration // the pending Sleep, shown in deadlock dumps
	onPanic     func(any)

	// OnKill, if set, runs on the scheduler's goroutine after a killed
	// thread has finished unwinding. The reboot manager uses it.
	OnKill func()
}

// ID returns the thread's unique id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// State returns the thread's lifecycle state.
func (t *Thread) State() State { return t.state }

// Dispatches returns how many times this thread has been dispatched.
func (t *Thread) Dispatches() uint64 { return t.dispatches }

// PanicValue returns the value fn panicked with, or nil.
func (t *Thread) PanicValue() any { return t.panicVal }

// Accessor returns the thread's protection-checked memory accessor, or
// nil when the scheduler was built without SetMemory.
func (t *Thread) Accessor() *mem.Accessor { return t.acc }

// PKRU returns the thread's protection word.
func (t *Thread) PKRU() mem.PKRU { return t.pkru }

// SetPKRU installs a new protection word, effective immediately.
func (t *Thread) SetPKRU(p mem.PKRU) {
	t.pkru = p
	if t.acc != nil {
		t.acc.SetPKRU(p)
	}
}

// Scheduler returns the owning scheduler.
func (t *Thread) Scheduler() *Scheduler { return t.sched }

// Clock returns the scheduler's virtual clock.
func (t *Thread) Clock() *clock.Virtual { return t.sched.clk }

// Elapsed returns virtual time since the clock's epoch.
func (t *Thread) Elapsed() time.Duration { return t.sched.clk.Elapsed() }

// memory is set once via SetMemory; threads derive accessors from it.
var errMemAlreadySet = errors.New("sched: memory already set")

// SetMemory attaches the address space from which thread accessors are
// derived. Must be called before the first Spawn that needs an accessor.
func (s *Scheduler) SetMemory(m *mem.Memory) error {
	if s.memory != nil {
		return errMemAlreadySet
	}
	s.memory = m
	return nil
}

// Spawn creates a thread named name running fn with protection word pkru
// and puts it on the ready queue. It may be called before Run or from any
// running thread.
func (s *Scheduler) Spawn(name string, pkru mem.PKRU, fn func(*Thread)) *Thread {
	if fn == nil {
		panic("sched: Spawn with nil fn")
	}
	s.nextID++
	t := &Thread{
		sched:  s,
		id:     s.nextID,
		name:   name,
		state:  StateReady,
		resume: make(chan struct{}),
		fn:     fn,
		pkru:   pkru,
	}
	if s.memory != nil {
		t.acc = mem.NewAccessor(s.memory, pkru)
	}
	s.threads = append(s.threads, t)
	s.stats.Spawned++
	s.policy.Enqueue(t)
	go t.run()
	return t
}

func (t *Thread) run() {
	<-t.resume // wait for first dispatch
	defer func() {
		if r := recover(); r != nil {
			if ks, ok := r.(killSentinel); ok && ks.t == t {
				// Clean unwind of a killed thread.
			} else {
				t.panicVal = r
			}
		}
		t.state = StateDone
		t.sched.yielded <- struct{}{}
	}()
	if t.killed {
		// Killed before ever being dispatched: unwind without running fn.
		panic(killSentinel{t: t})
	}
	t.fn(t)
}

// switchOut returns control to the scheduler and parks until redispatched,
// then honours a pending kill.
func (t *Thread) switchOut() {
	t.sched.yielded <- struct{}{}
	<-t.resume
	if t.killed {
		panic(killSentinel{t: t})
	}
}

// Yield places the thread at the back of the ready queue and runs someone
// else. A polling component calls this between empty mailbox checks.
func (t *Thread) Yield() {
	t.mustBeCurrent("Yield")
	t.state = StateReady
	t.sched.policy.Enqueue(t)
	t.switchOut()
}

// Block parks the thread until another thread (or a timer callback) calls
// Wake. The reason string appears in deadlock dumps.
func (t *Thread) Block(reason string) {
	t.mustBeCurrent("Block")
	t.state = StateBlocked
	t.blockReason = reason
	t.switchOut()
}

// Wake moves a blocked or sleeping thread to the ready queue. Waking a
// ready, running, or finished thread is a harmless no-op, so wake-ups
// never get lost to races with Block.
func (t *Thread) Wake() {
	switch t.state {
	case StateBlocked, StateSleeping:
		if t.wakeTimer != nil {
			t.wakeTimer.Stop()
			t.wakeTimer = nil
		}
		t.state = StateReady
		t.blockReason = ""
		t.sched.policy.Enqueue(t)
	}
}

// Sleep parks the thread for d of virtual time. Polling loops sleep on
// every empty retry, so the duration is stored as is and only formatted
// when a deadlock dump shows it.
func (t *Thread) Sleep(d time.Duration) {
	t.mustBeCurrent("Sleep")
	if d <= 0 {
		t.Yield()
		return
	}
	t.state = StateSleeping
	t.sleepFor = d
	t.wakeTimer = t.sched.clk.AfterFunc(d, func() {
		t.wakeTimer = nil
		t.Wake()
	})
	t.switchOut()
}

// Kill marks a thread for termination. A parked thread is unwound the
// next time the scheduler would dispatch it; the current thread cannot
// kill itself (it should just return). Kill is idempotent.
func (t *Thread) Kill() {
	if t.state == StateDone || t.killed {
		return
	}
	if t == t.sched.current {
		panic("sched: thread cannot Kill itself")
	}
	t.killed = true
	t.sched.stats.Killed++
	// Ensure the victim gets dispatched so it can unwind.
	t.Wake()
}

// Hint tells a dependency-aware policy to prefer target soon; with other
// policies it is a no-op. The VampOS interposition layer calls this when
// a component pushes a message (paper §V-C).
func (s *Scheduler) Hint(target *Thread) {
	s.policy.Hint(target)
}

// Stop makes Run return after the current dispatch completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether Stop has been requested.
func (s *Scheduler) Stopped() bool { return s.stopped }

func (t *Thread) mustBeCurrent(op string) {
	if t.sched.current != t {
		panic(fmt.Sprintf("sched: %s called on %q which is not the running thread", op, t.name))
	}
}

// Run dispatches threads until Stop is requested, every thread finishes,
// or the system deadlocks. It must be called from the host goroutine, not
// from a simulated thread.
func (s *Scheduler) Run() error {
	defer func() { s.current = nil }()
	for {
		if s.stopped {
			return nil
		}
		t := s.policy.Next()
		if t == nil {
			if s.allDone() {
				return nil
			}
			// Nothing ready: let virtual time advance to the next timer,
			// whose callbacks may wake threads.
			if s.clk.AdvanceToNext() {
				s.stats.ClockAdvances++
				continue
			}
			return fmt.Errorf("%w\n%s", ErrDeadlock, s.dumpThreads())
		}
		if t.state != StateReady {
			continue // killed before first dispatch, or a stale queue entry
		}
		s.dispatch(t)
	}
}

func (s *Scheduler) dispatch(t *Thread) {
	if s.dispatchCost > 0 {
		// Charge before the state change so timer callbacks fired by the
		// advance see a consistent (not-yet-running) thread.
		s.clk.Advance(s.dispatchCost)
		if t.state != StateReady {
			// A timer callback re-parked or killed the thread; requeue
			// decisions already happened inside the callback.
			return
		}
	}
	t.state = StateRunning
	t.dispatches++
	s.stats.Dispatches++
	if s.onDispatch != nil {
		s.onDispatch(t)
	}
	s.current = t
	t.resume <- struct{}{}
	<-s.yielded
	s.current = nil
	if t.state == StateDone {
		if t.killed && t.OnKill != nil {
			t.OnKill()
		}
		if t.panicVal != nil && t.onPanic != nil {
			t.onPanic(t.panicVal)
		}
	}
}

// SetPanicHandler installs fn to run (on the scheduler goroutine) if the
// thread's function ends in a panic. The failure detector uses this to
// turn component crashes into reboot triggers instead of process aborts.
func (t *Thread) SetPanicHandler(fn func(any)) { t.onPanic = fn }

func (s *Scheduler) allDone() bool {
	for _, t := range s.threads {
		if t.state != StateDone {
			return false
		}
	}
	return true
}

// Threads returns a snapshot of all threads ever spawned, in id order.
func (s *Scheduler) Threads() []*Thread {
	out := make([]*Thread, len(s.threads))
	copy(out, s.threads)
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (s *Scheduler) dumpThreads() string {
	var b strings.Builder
	for _, t := range s.threads {
		if t.state == StateDone {
			continue
		}
		fmt.Fprintf(&b, "  thread %d %q: %s", t.id, t.name, t.state)
		if t.state == StateSleeping {
			fmt.Fprintf(&b, " (sleep %v)", t.sleepFor)
		} else if t.blockReason != "" {
			fmt.Fprintf(&b, " (%s)", t.blockReason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
