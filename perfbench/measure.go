package main

import (
	"bufio"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mineassess/internal/obs"
)

// quantile returns the q-quantile of ns durations (nearest rank) in ms.
// It sorts xs in place.
func quantileMs(xs []int64, q float64) float64 {
	return quantile(xs, q) / 1e6
}

// quantile returns the nearest-rank q-quantile of xs; it sorts xs in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = max(0, min(i, len(xs)-1))
	return float64(xs[i])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeSyscalls is the process's write-syscall count from /proc/self/io.
func writeSyscalls() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "syscw:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/stat (100 on
// every Linux architecture Go supports).
const clockTicks = 100

// stealTicks is the CPU time the hypervisor stole from this machine, in
// clock ticks summed over CPUs (the "steal" column of /proc/stat).
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// quietest returns, in order, the indices of the intervals the hypervisor
// stole least CPU time from: those at the lowest steal level, widened one
// level at a time until they hold at least minOps operations (ops[i] in
// interval i). Stolen time is interference from outside the machine; the
// program does the same work in every interval, but one that lost its CPUs
// to another tenant measures that tenant. A busy tenant slows even the
// intervals it steals nothing from (through the shared caches), but less
// than the rest, so the cut is as low as the operation count allows.
func quietest(steal []int64, ops []int, minOps int) []int {
	levels := slices.Clone(steal)
	slices.Sort(levels)
	var quiet []int
	for _, limit := range slices.Compact(levels) {
		quiet = quiet[:0]
		n := 0
		for i, s := range steal {
			if s <= limit {
				quiet = append(quiet, i)
				n += ops[i]
			}
		}
		if n >= minOps {
			break
		}
	}
	return quiet
}

// liveHeap returns the live heap after two forced collections (the second
// frees what sync.Pool victim caches held through the first).
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// runtimeSnap holds the cumulative runtime/metrics values the traced run
// differences.
type runtimeSnap struct {
	gcCPU, totalCPU float64
	sched           *metrics.Float64Histogram
	heapLive        uint64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	h := s[2].Value.Float64Histogram()
	return runtimeSnap{
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		sched:    &metrics.Float64Histogram{Counts: slices.Clone(h.Counts), Buckets: slices.Clone(h.Buckets)},
		heapLive: s[3].Value.Uint64(),
	}
}

// runtimeDelta returns the GC share of CPU time and the scheduling latency
// p99 (µs) between two snapshots.
func runtimeDelta(a, b runtimeSnap) (gcFraction, schedP99us float64) {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		gcFraction = (b.gcCPU - a.gcCPU) / d
	}
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return gcFraction, 0
	}
	rank := 0.99 * float64(total)
	var seen float64
	for i, c := range counts {
		if c == 0 || seen+float64(c) < rank {
			seen += float64(c)
			continue
		}
		// Interpolate within the bucket; an open-ended bucket reports its
		// finite edge.
		lo, hi := b.sched.Buckets[i], b.sched.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return gcFraction, hi * 1e6
		}
		if math.IsInf(hi, 1) {
			return gcFraction, lo * 1e6
		}
		return gcFraction, (lo + (hi-lo)*(rank-seen)/float64(c)) * 1e6
	}
	return gcFraction, 0
}

// obsValues flattens a registry snapshot into name → value, summing series
// that differ only by labels.
func obsValues(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, s := range reg.Snapshot() {
		out[s.Name] += s.Value
	}
	return out
}

// fingerprint describes the machine a result was measured on.
func fingerprint(journalDir, fsync string) map[string]string {
	return map[string]string{
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"journal_fs": filesystemOf(journalDir),
		"fsync":      fsync,
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf returns the type of the filesystem holding dir, from the
// longest matching mount point in /proc/self/mountinfo.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint options... - fstype source superopts
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, tail[0]
		}
	}
	return fs
}
