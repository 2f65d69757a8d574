package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vampos/internal/apps/redis"
	"vampos/internal/bench"
	"vampos/internal/core"
	"vampos/internal/sched"
	"vampos/internal/trace"
	"vampos/internal/unikernel"
)

// Shape of the kv and paced workloads.
const (
	numKeys    = 1000
	valueLen   = 64
	numClients = 2
	// setBlock: each block of setBlock consecutive requests of a client
	// holds exactly one SET, at a seeded position, so every run has the
	// same 10% share of SETs and the latency tail, which the SETs make,
	// does not follow how many SETs a seed happened to draw.
	setBlock = 10

	kvPerRound    = 250                    // requests per client per kv round
	pacedInterval = 5 * time.Millisecond   // 200 requests per virtual second, alternating clients
	pacedRound    = 100 * time.Millisecond // one paced round is a tenth of a virtual second
	opTimeout     = 500 * time.Millisecond // virtual; a timed-out request fails and redials
)

// digestRounds is how many rounds, from the first, fold into the
// identity digest: 1000 kv requests, or one virtual second of paced.
func digestRounds(w string) int {
	if w == "paced" {
		return 10
	}
	return 2
}

// keyName is the i-th four-byte key.
func keyName(i int) string { return fmt.Sprintf("k%03d", i) }

// valueFor is the seeded 64-byte value of key i at version v.
func valueFor(seed int64, i, v int) string {
	r := newRNG(seed, uint64(i)<<20|uint64(v))
	var b strings.Builder
	for b.Len() < valueLen {
		b.WriteString(strconv.FormatUint(r.next(), 36))
	}
	return b.String()[:valueLen]
}

// preloadAOF is the append-only file that installs every key at
// version 0 when Redis starts, together with the matching shadow map.
func preloadAOF(seed int64) ([]byte, map[string]string) {
	shadow := make(map[string]string, numKeys)
	var b strings.Builder
	for i := 0; i < numKeys; i++ {
		k, v := keyName(i), valueFor(seed, i, 0)
		shadow[k] = v
		b.WriteString("SET " + k + " " + v + "\n")
	}
	return []byte(b.String()), shadow
}

// newRedisInstance assembles the DaS Redis instance every workload
// runs: synchronous AOF (fsync on every write), paper-default recovery
// (one post-init checkpoint, full-log replay).
func newRedisInstance() (*unikernel.Instance, *redis.App, error) {
	app := redis.New()
	inst, err := unikernel.New(app.Profile(unikernel.Config{Core: core.DaSConfig()}))
	return inst, app, err
}

// reqSample is one client request as the benchmark observed it.
type reqSample struct {
	set      bool
	ok       bool
	wall     time.Duration
	virt     time.Duration // virtual latency, from the due time for paced requests
	lateness time.Duration // paced only: how late the generator sent it
}

// client is one simulated host-side Redis connection.
type client struct {
	id       int
	g        *loadGen
	th       *sched.Thread
	cl       *bench.RedisClient
	r        *rng
	version  int
	n, setAt int // requests issued; position of the SET in the current block
	released bool
	roundLog []reqSample // this round's requests
}

// loadGen drives numClients connections in barrier-separated rounds.
type loadGen struct {
	w       string
	seed    int64
	s       *unikernel.Sys
	ctl     *sched.Thread
	shadow  map[string]string
	clients []*client
	pending int
	stop    bool
	base    time.Duration // virtual start of round 0 (paced schedule)
	round   int

	incorrect int
	firstErr  string
}

func (g *loadGen) arrive() {
	g.pending--
	if g.pending == 0 {
		g.ctl.Wake()
	}
}

func (g *loadGen) wait() {
	for g.pending > 0 {
		g.ctl.Block("wallbench: round barrier")
	}
}

func (g *loadGen) dial(c *client) error {
	var err error
	c.cl, err = bench.DialRedis(g.s, c.th, g.s.NewPeer(), redis.DefaultPort, opTimeout)
	return err
}

// do issues one request and checks its reply against the shadow map:
// every GET must return the latest acknowledged value of its key. Keys
// are partitioned between clients (key index ≡ client id mod 2), so a
// client's own acknowledged writes are the only ones it can observe.
func (c *client) do(dueV time.Duration) {
	g := c.g
	idx := numClients*c.r.intn(numKeys/numClients) + c.id
	k := keyName(idx)
	if c.n%setBlock == 0 {
		c.setAt = c.r.intn(setBlock)
	}
	set := c.n%setBlock == c.setAt
	c.n++
	smp := reqSample{set: set}
	startV := c.th.Elapsed()
	if dueV < 0 {
		dueV = startV
	}
	smp.lateness = startV - dueV
	var val string
	w0 := wallNow()
	var err error
	if set {
		c.version++
		val = valueFor(g.seed, idx, c.version)
		err = c.cl.Set(k, val, opTimeout)
	} else {
		var found bool
		val, found, err = c.cl.Get(k, opTimeout)
		if err == nil && (!found || val != g.shadow[k]) {
			g.incorrect++
			if g.firstErr == "" {
				g.firstErr = fmt.Sprintf("GET %s = (%q, %v), want %q", k, val, found, g.shadow[k])
			}
		}
	}
	smp.wall = wallNow().Sub(w0)
	smp.virt = c.th.Elapsed() - dueV
	smp.ok = err == nil
	if err != nil {
		c.cl.Close()
		if derr := g.dial(c); derr != nil {
			g.stop = true
			if g.firstErr == "" {
				g.firstErr = "redial: " + derr.Error()
			}
		}
	} else if set {
		g.shadow[k] = val
	}
	c.roundLog = append(c.roundLog, smp)
}

// runRound is one client's share of a round.
func (c *client) runRound() {
	g := c.g
	switch g.w {
	case "kv":
		for i := 0; i < kvPerRound && !g.stop; i++ {
			c.do(-1)
		}
	case "paced":
		start := g.base + time.Duration(g.round)*pacedRound
		for due := start + time.Duration(c.id)*pacedInterval; due < start+pacedRound && !g.stop; due += numClients * pacedInterval {
			if now := c.th.Elapsed(); now < due {
				c.th.Sleep(due - now)
			}
			c.do(due)
		}
	}
}

func (g *loadGen) clientLoop(c *client) {
	if err := g.dial(c); err != nil {
		g.stop = true
		g.firstErr = "dial: " + err.Error()
	}
	g.arrive()
	for {
		for !c.released && !g.stop {
			c.th.Block("wallbench: wait for round")
		}
		if g.stop {
			if c.cl != nil {
				c.cl.Close()
			}
			return
		}
		c.released = false
		c.runRound()
		g.arrive()
	}
}

// redisPhase is one boot of the Redis instance with the kv or paced load
// against it.
type redisPhase struct {
	w       string
	seed    int64
	seconds float64
	traced  bool // attach the flight recorder
	// probe reboots every data-path component once after the timed
	// part, for the per-layer reboot metrics on kv and paced.
	probe bool
	// setupOnly stops right after set-up: the extra set-ups that make
	// setup_s a median.
	setupOnly bool
}

func (p redisPhase) run(res *phaseResult) error {
	preload, shadow := preloadAOF(p.seed)
	a0 := readAllocs()
	w0 := wallNow()
	inst, app, err := newRedisInstance()
	if err != nil {
		return err
	}
	if err := inst.Host().FS().WriteFile(redis.AOFPath, preload); err != nil {
		return err
	}
	var rec *trace.Recorder
	if p.traced {
		rec = inst.NewTracer("wallbench/"+p.w, trace.WithDispatches(), trace.WithCapacity(traceCapacity))
	}
	g := &loadGen{w: p.w, seed: p.seed, shadow: shadow}
	var runErr error
	err = inst.Run(func(s *unikernel.Sys) {
		defer s.Stop()
		defer teardown(s)
		res.addBoot(wallNow().Sub(w0), readAllocs().sub(a0))
		g.s, g.ctl = s, s.Ctx().Thread()
		if runErr = s.StartApp(app); runErr != nil {
			return
		}
		if app.Keys() != numKeys {
			runErr = fmt.Errorf("preload installed %d keys, want %d", app.Keys(), numKeys)
			return
		}
		g.pending = numClients
		for i := 0; i < numClients; i++ {
			c := &client{id: i, g: g, r: newRNG(p.seed, uint64(100+i))}
			g.clients = append(g.clients, c)
			s.GoHost(fmt.Sprintf("wallbench/client%d", i), func(th *sched.Thread) {
				c.th = th
				g.clientLoop(c)
			})
		}
		g.wait()
		if g.stop {
			runErr = fmt.Errorf("set-up: %s", g.firstErr)
			return
		}
		res.addSetup(wallNow().Sub(w0))
		if p.setupOnly {
			return
		}

		m := startWindow()
		k0, v0 := readCounters(inst), s.Elapsed()
		g.base = v0
		dg := newDigest()
		n0 := res.attempted
		segW, segV, segN := m.w0, v0, n0
		for ; ; g.round++ {
			g.pending = numClients
			for _, c := range g.clients {
				c.roundLog = c.roundLog[:0]
				c.released = true
				c.th.Wake()
			}
			if p.traced && g.round == digestRounds(p.w) {
				offset, d := traceSpan(p.w)
				res.addTrace(traceWindow(s, rec, offset, d))
			}
			g.wait()
			for _, c := range g.clients {
				for _, smp := range c.roundLog {
					if g.round < digestRounds(p.w) {
						dg.dur(smp.virt)
						dg.dur(smp.lateness)
					}
					res.addRequest(smp)
				}
			}
			if g.round < digestRounds(p.w) {
				foldInstance(&dg, s, inst)
			}
			now := wallNow()
			res.closeSegment(now.Sub(segW), s.Elapsed()-segV, res.attempted-segN)
			segW, segV, segN = wallNow(), s.Elapsed(), res.attempted
			if g.stop || (g.round >= digestRounds(p.w) && (g.round+1 >= workUnits(p.w, p.seconds) || now.Sub(m.w0).Seconds() >= wallCap*p.seconds)) {
				break
			}
		}
		m.end(res)
		res.ops += res.attempted - n0
		res.virt += s.Elapsed() - v0
		res.ctr.add(readCounters(inst).sub(k0))
		res.noteInstance(inst)
		res.digests = append(res.digests, dg.String())
		if p.probe {
			probe := func() {
				for _, comp := range crashTargets {
					if runErr = res.proactiveReboot(s, comp); runErr != nil {
						return
					}
				}
			}
			if rec != nil {
				res.addPhases(phasesDuring(rec, probe))
			} else {
				probe()
			}
			res.noteReboots(inst.Runtime())
		}
	})
	if err == nil {
		err = runErr
	}
	if err == nil && g.firstErr != "" && g.incorrect == 0 {
		err = fmt.Errorf("%s: %s", p.w, g.firstErr)
	}
	res.incorrect += g.incorrect
	if g.incorrect > 0 {
		res.notes = append(res.notes, "oracle: "+g.firstErr)
	}
	return err
}

// traceSpan is where, within the first round after the digest rounds,
// the traced window sits (virtual offset and length). A kv round spans
// about 35 ms of virtual time; a paced round 100 ms.
func traceSpan(w string) (offset, d time.Duration) {
	if w == "kv" {
		return 2 * time.Millisecond, 20 * time.Millisecond
	}
	return 25 * time.Millisecond, 50 * time.Millisecond
}

// teardown unwinds every other simulated thread before the controller
// returns. A stopped scheduler leaves parked threads' goroutines behind,
// and they would keep the whole instance reachable; a run boots many.
func teardown(s *unikernel.Sys) {
	self := s.Ctx().Thread()
	sch := s.Instance().Runtime().Scheduler()
	for alive := true; alive; {
		alive = false
		for _, th := range sch.Threads() {
			if th != self && th.State() != sched.StateDone {
				alive = true
				th.Kill()
				th.Wake()
			}
		}
		s.Ctx().Yield()
	}
}

// foldInstance folds the instance's end-of-round model state into dg:
// the virtual clock, scheduler counts, reboot records and the AOF bytes
// on the host export.
func foldInstance(dg *digest, s *unikernel.Sys, inst *unikernel.Instance) {
	rt := inst.Runtime()
	dg.dur(s.Elapsed())
	ss := rt.SchedStats()
	dg.u64(ss.Dispatches)
	dg.u64(ss.ClockAdvances)
	for _, r := range rt.Reboots() {
		dg.str(r.Group)
		dg.dur(r.VirtualDuration)
		dg.u64(uint64(r.ReplayedEntries))
		dg.u64(uint64(r.RestoredPages))
	}
	aof, _ := inst.Host().FS().ReadFile(redis.AOFPath)
	dg.str(string(aof))
}
