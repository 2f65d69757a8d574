// Command wallbench measures what simulating VampOS unikernels costs in
// wall time and Go allocations, on three seeded workloads against a DaS
// Redis instance with paper-default recovery:
//
//   - kv: closed-loop GET/SET over two connections;
//   - paced: open-loop requests at 200 per virtual second;
//   - recover: repeated boot, crash and recovery trials.
//
// Every workload folds its virtual-time observables into an identity
// digest. For the default seed the digest must match reference.json, so
// a change that alters the simulated model cannot pass as a speed-up.
//
// Usage (from the module directory; wallbench/run.py builds and runs it
// from the repository root):
//
//	go run . --workload kv --seed 1 --seconds 10 --trace 0
//
// --seconds sizes a run's work (see workUnits); wall times are scaled
// to a reference host's speed (see calibrate). --trace 0 prints the
// end-to-end metrics; --trace 1 splits the work between an untraced and
// a traced phase and prints the per-layer metrics. The last line of
// standard output is the JSON result.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

const (
	// gomaxprocs pins the Go scheduler to one P. The simulation is
	// serial (one baton), and with a second P every baton handoff between
	// simulated threads can become a cross-CPU wake-up: on a 2-vCPU VM
	// that made kv up to 1.7x slower and its p99 latency 5x noisier.
	gomaxprocs  = 1
	defaultSeed = 1
	// setupRepeats is the set-ups per run; setup_s is their median. Each
	// starts from a collected heap, as in a fresh process, so that no
	// set-up pays for collecting the previous one's garbage.
	setupRepeats = 21
)

// A run's work is set by --seconds, not by the clock: seconds times a
// nominal rate, so one seed and one --seconds give the same requests,
// trials, failures and AOF growth however fast the host runs. The rates
// are about what a 2-vCPU VM sustains while its other tenants are busy,
// so a run measures for about --seconds or less.
const (
	kvRoundsPerSec      = 6 // kv rounds of 2 x kvPerRound requests
	pacedRoundsPerSec   = 5 // paced rounds of a tenth of a virtual second
	recoverCyclesPerSec = 5 // recover cycles of trialsPerCycle trials
	// wallCap stops a run after wallCap x --seconds of measuring, with
	// whatever work is left undone, so a much slower program still ends
	// in time.
	wallCap = 4
)

// workUnits is how many rounds (kv, paced) or cycles (recover) a phase
// of the given seconds runs.
func workUnits(w string, seconds float64) int {
	rate := map[string]float64{"kv": kvRoundsPerSec, "paced": pacedRoundsPerSec, "recover": recoverCyclesPerSec}[w]
	return max(1, int(seconds*rate+0.5))
}

//go:embed reference.json
var referenceJSON []byte

// reference is the digest each workload yields for the default seed.
type reference struct {
	Seed    int64             `json:"seed"`
	Digests map[string]string `json:"digests"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "kv", "kv, paced or recover")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "sizes the measured work: about this many wall seconds")
	traced := flag.Int("trace", 0, "1: per-layer metrics from an untraced and a traced phase")
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)
	if err := run(*workload, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
}

// runPhase runs one phase of workload w. setups repeats the set-up for
// setup_s; probe (per-layer runs only) adds kv and paced's reboot probe.
func runPhase(w string, seed int64, seconds float64, traced, setups, probe bool) (*phaseResult, error) {
	res := &phaseResult{}
	switch w {
	case "kv", "paced":
		if setups {
			for i := 1; i < setupRepeats; i++ {
				runtime.GC()
				if err := (redisPhase{w: w, seed: seed, setupOnly: true}).run(res); err != nil {
					return nil, err
				}
			}
		}
		runtime.GC()
		return res, redisPhase{w: w, seed: seed, seconds: seconds, traced: traced, probe: probe}.run(res)
	case "recover":
		return res, recoverPhase(seed, seconds, traced, setups, res)
	}
	return nil, fmt.Errorf("unknown workload %q (kv, paced, recover)", w)
}

func run(w string, seed int64, seconds float64, traced bool) error {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	fmt.Printf("wallbench %s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		w, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	phaseSeconds := seconds
	if traced {
		phaseSeconds = seconds / 2
	}
	u, err := runPhase(w, seed, phaseSeconds, false, true, traced)
	if err != nil {
		return err
	}
	phases := []*phaseResult{u}
	var tr *phaseResult
	if traced {
		if tr, err = runPhase(w, seed, phaseSeconds, true, false, true); err != nil {
			return err
		}
		phases = append(phases, tr)
	}

	out := result{Correct: true, Metrics: make(map[string]metric)}
	var digests, notes []string
	count := make(map[string]int)
	for _, p := range phases {
		out.Attempted += p.attempted + p.trials
		out.Failed += p.failed + p.failedTrials
		if p.incorrect > 0 {
			out.Correct = false
		}
		digests = append(digests, p.digests...)
		for _, n := range p.notes {
			if count[n] == 0 {
				notes = append(notes, n)
			}
			count[n]++
		}
	}
	for _, n := range notes {
		fmt.Printf("note (x%d): %s\n", count[n], n)
	}
	fmt.Printf("digest %s seed=%d: %s\n", w, seed, strings.Join(digests, " "))
	identical := true
	for _, d := range digests {
		identical = identical && d == digests[0]
	}
	if !identical {
		fmt.Println("IDENTITY FAILURE: digests differ between phases (untraced vs traced)")
	}
	if want, ok := ref.Digests[w]; ok && seed == ref.Seed && digests[0] != want {
		fmt.Printf("IDENTITY FAILURE: digest %s, reference %s for seed %d\n", digests[0], want, ref.Seed)
		identical = false
	}
	if !identical {
		out.Correct = false
		out.Failed = out.Attempted
	}

	for _, p := range phases {
		p.smoothScales()
	}
	table := endToEnd(w, u)
	if traced {
		table = perLayer(w, u, tr)
	}
	printTable(table)
	fmt.Printf("attempted %d failed %d (requests %d/%d failed, trials %d/%d failed, crashes losing the in-flight request %d)\n",
		out.Attempted, out.Failed, u.failed, u.attempted, u.failedTrials, u.trials, u.lostRecoveries)
	for _, m := range table {
		if m.json {
			out.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// row is one printed metric; json marks the ones in the result line.
type row struct {
	name  string
	value float64
	unit  string
	json  bool
}

func printTable(rows []row) {
	for _, r := range rows {
		mark := " "
		if !r.json {
			mark = "*"
		}
		fmt.Printf("%s %-34s %14.6g %s\n", mark, r.name, r.value, r.unit)
	}
	fmt.Println("  (* printed for reference; not in the result line because it is 0 or undefined on some workloads)")
}

func perOp(n uint64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

func perVsec(n uint64, v time.Duration) float64 {
	if v <= 0 {
		return 0
	}
	return float64(n) / v.Seconds()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func (p *phaseResult) errorRate() float64 {
	n := p.attempted + p.trials
	if n == 0 {
		return 0
	}
	return float64(p.failed+p.failedTrials) / float64(n)
}

// rate is what trace.overhead compares: ops per wall second, or for
// paced the virtual seconds per wall second.
// Snapshotting and analysing trace windows is not recorder overhead,
// so its wall time is left out.
func (p *phaseResult) rate(w string) float64 {
	wall := p.wall - summarise(p.traces).cost
	if wall <= 0 {
		return 0
	}
	if w == "paced" {
		return p.virt.Seconds() / wall.Seconds()
	}
	return float64(p.ops) / wall.Seconds()
}

// opWallQuantile is the q-quantile of the scaled request latencies;
// it ranks failed requests above every successful one: a request that
// failed missed any latency target.
func (p *phaseResult) opWallQuantile(q float64) float64 {
	var ok, missed []float64
	for _, sg := range p.segments {
		ok = append(ok, scaled(sg.okUS, sg.ref)...)
		missed = append(missed, scaled(sg.missedUS, sg.ref)...)
	}
	return tailQuantile(ok, missed, q)
}

// opsPerSec is the median over segments of ops per reference-host
// second.
func (p *phaseResult) opsPerSec() float64 {
	return p.segmentMedian(func(sg segment) float64 { return float64(sg.ops) / (sg.wall.Seconds() * sg.ref) })
}

// virtPerWall is the median over segments of virtual seconds per
// reference-host second.
func (p *phaseResult) virtPerWall() float64 {
	return p.segmentMedian(func(sg segment) float64 { return sg.virt.Seconds() / (sg.wall.Seconds() * sg.ref) })
}

// endToEnd's wall figures are in reference-host time (see calibrate):
// per segment for rates and request latencies, by the phase's median
// scale for recovery latencies, and by the set-ups' own calibrations
// for setup_s.
func endToEnd(w string, u *phaseResult) []row {
	ops := max(u.ops, 1)
	p99, windows := u.windowedP99()
	sc := u.scale()
	return []row{
		{"setup_s", quantile(u.setups, 0.5) * quantile(u.setupScales, 0.5), "s", true},
		{"ops_per_s", u.opsPerSec(), "1/s", true},
		{"virt_per_wall", u.virtPerWall(), "s/s", true},
		{"op_wall_p50_us", u.opWallQuantile(0.5), "us", true},
		{"op_wall_p99_us", p99, "us", true},
		{"recovery_wall_p50_ms", quantile(u.recoveryMS, 0.5) * sc, "ms", false},
		{"recovery_wall_p90_ms", quantile(u.recoveryMS, 0.9) * sc, "ms", false},
		{"allocs_per_op", float64(u.allocs.mallocs) / float64(ops), "count", true},
		{"alloc_bytes_per_op", float64(u.allocs.bytes) / float64(ops), "B", true},
		{"peak_rss_mb", peakRSSMB(), "MB", true},
		{"error_rate", u.errorRate(), "ratio", false},
		{"ops_per_s_unscaled", u.segmentMedian(func(sg segment) float64 { return float64(sg.ops) / sg.wall.Seconds() }), "1/s", false},
		{"host_scale", sc, "ratio", false},
		{"requests", float64(u.attempted), "count", false},
		{"p99_windows", float64(windows), "count", false},
		{"generator_lateness_max_us", us(u.maxLateness), "us (virtual)", false},
	}
}

func perLayer(w string, u, tr *phaseResult) []row {
	ts := summarise(tr.traces)
	ops := u.ops
	rows := []row{
		{"unikernel.boot_wall_ms", quantile(u.bootMS, 0.5), "ms", true},
		{"unikernel.boot_alloc_mb", quantile(u.bootAllocMB, 0.5), "MB", true},
		{"sched.dispatches_per_op", perOp(u.ctr.dispatches, ops), "count", true},
		{"sched.dispatches_per_vsec", perVsec(u.ctr.dispatches, u.virt), "1/s", true},
		{"sched.clock_advances_per_vsec", perVsec(u.ctr.clockAdvances, u.virt), "1/s", true},
		{"core.calls_per_op", perOp(u.ctr.calls, ops), "count", true},
		{"core.messages_per_op", perOp(u.ctr.messages, ops), "count", true},
		{"core.calls_per_vsec", perVsec(u.ctr.calls, u.virt), "1/s", true},
		{"core.reboot_wall_p50_us", quantile(u.rebootWallUS, 0.5), "us", true},
		{"core.replayed_per_reboot", mean(u.replayed), "count", true},
		{"core.restored_pages_per_reboot", mean(u.restored), "count", true},
		{"core.proactive_reboot_wall_us", quantile(u.proactiveUS, 0.5), "us", true},
		{"recovery_wall_p50_ms", quantile(u.recoveryMS, 0.5), "ms", false},
		{"recovery_wall_p90_ms", quantile(u.recoveryMS, 0.9), "ms", false},
		{"mem.resident_mb", u.residentMB, "MB", true},
		{"core.domain_kb", u.domainKB, "KB", true},
		{"host.p9_requests_per_op", perOp(u.ctr.p9Requests, ops), "count", true},
		{"host.fsyncs_per_op", perOp(u.ctr.fsyncs, ops), "count", true},
		{"redis.get_wall_p50_us", quantile(u.getUS, 0.5) * u.scale(), "us", true},
		{"redis.set_wall_p50_us", quantile(u.setUS, 0.5) * u.scale(), "us", true},
		{"goruntime.gc_cpu_share", u.gcShare, "ratio", true},
		{"error_rate", u.errorRate(), "ratio", true},
	}
	var exec time.Duration
	names := append(append([]string(nil), selfComponents...), "redis", "other")
	for _, c := range names {
		exec += ts.self[c]
		rows = append(rows, row{"trace.self_share." + c, ts.share(ts.self[c]), "ratio", true})
	}
	rows = append(rows,
		row{"trace.hop_share", ts.share(ts.hop), "ratio", true},
		row{"trace.host_share", ts.share(ts.host), "ratio", true},
		row{"trace.conductor_share", 1 - ts.share(exec), "ratio", true},
	)
	phaseNames := []string{"quiesce", "restore", "replay", "resume"}
	for _, ph := range phaseNames {
		var xs []float64
		for _, d := range tr.phases[ph] {
			xs = append(xs, us(d))
		}
		rows = append(rows, row{"trace.phase_wall_us." + ph, quantile(xs, 0.5), "us", true})
	}
	overhead := 0.0
	if r := tr.rate(w); r > 0 {
		overhead = u.rate(w) / r
	}
	rows = append(rows,
		row{"trace.overhead", overhead, "ratio", true},
		row{"trace.windows", float64(ts.windows), "count", false},
		row{"trace.windows_lost", float64(ts.lost), "count", false},
	)
	return rows
}
