package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// wallNow is the benchmark's wall-clock read. Wall readings only
// measure what the simulator costs; workload decisions that feed the
// identity digest never depend on them.
func wallNow() time.Time { return time.Now() }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the nearest-rank q-quantile of ok followed by missed:
// every missed sample ranks above every ok one, whatever its value.
func tailQuantile(ok, missed []float64, q float64) float64 {
	n := len(ok) + len(missed)
	if n == 0 {
		return 0
	}
	i := min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
	if i < len(ok) {
		return quantile(ok, float64(i+1)/float64(len(ok)))
	}
	return quantile(missed, float64(i-len(ok)+1)/float64(len(missed)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is FNV-1a over the simulation's observable virtual-time
// quantities. Equal digests mean the model did the same thing.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= v >> (8 * i) & 0xff
		d.h *= 1099511628211
	}
}

func (d *digest) dur(v time.Duration) { d.u64(uint64(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= 1099511628211
	}
}

func (d digest) String() string { return fmt.Sprintf("%016x", d.h) }

// rng is splitmix64: every workload input derives from it.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// allocSnap is a Go heap allocation reading.
type allocSnap struct{ mallocs, bytes uint64 }

func readAllocs() allocSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocSnap{mallocs: m.Mallocs, bytes: m.TotalAlloc}
}

func (a allocSnap) sub(b allocSnap) allocSnap {
	return allocSnap{mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes}
}

// cpuSnap reads the Go runtime's GC and total CPU-time estimates.
type cpuSnap struct{ gc, total float64 }

func readCPU() cpuSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSnap
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcShare is the GC's share of CPU time between two readings.
func gcShare(a, b cpuSnap) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
