package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"skyscraper/internal/mcast"
)

// usage is one process's resource ledger at an instant: CPU seconds split
// into user and system time, and the peak resident set (VmHWM).
type usage struct {
	UserS  float64 `json:"user_s"`
	SysS   float64 `json:"sys_s"`
	HWMKiB int64   `json:"hwm_kib"`
	Procs  int     `json:"gomaxprocs"`
}

func (u usage) cpu() float64 { return u.UserS + u.SysS }

// selfUsage reads this process's rusage and peak RSS.
func selfUsage() usage {
	var ru syscall.Rusage
	u := usage{Procs: runtime.GOMAXPROCS(0), HWMKiB: peakRSSKiB()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.UserS = time.Duration(ru.Utime.Nano()).Seconds()
		u.SysS = time.Duration(ru.Stime.Nano()).Seconds()
	}
	return u
}

// peakRSSKiB is VmHWM from /proc/self/status, falling back to the
// rusage high-water mark (also KiB on Linux) where /proc is absent.
func peakRSSKiB() int64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
						return v
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		return ru.Maxrss
	}
	return 0
}

// quiesce collects garbage between rounds, so no round or set-up sample
// inherits another's GC debt and the audience's peak RSS is one round's
// peak, not a pile-up across rounds. Freed memory stays mapped: handing
// it back to the OS would make the next round fault it in again while
// its first cohorts start.
func quiesce() { runtime.GC() }

// udpCounters is the kernel's UDP ledger from /proc/net/snmp; ok is false
// where the file is absent or unparsable, so callers record the counters
// as unavailable instead of as zero.
type udpCounters struct {
	RcvbufErrors, SndbufErrors int64
	ok                         bool
}

func readUDPCounters() udpCounters {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return udpCounters{}
	}
	var header []string
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		c := udpCounters{ok: true}
		found := 0
		for i := 1; i < len(fields) && i < len(header); i++ {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil {
				continue
			}
			switch header[i] {
			case "RcvbufErrors":
				c.RcvbufErrors = v
				found++
			case "SndbufErrors":
				c.SndbufErrors = v
				found++
			}
		}
		c.ok = found == 2
		return c
	}
	return udpCounters{}
}

// Runtime-metrics names for the audience's GC pauses and scheduling
// latency; the GC name changed in Go 1.22, so both are tried.
var (
	gcPauseNames = []string{"/sched/pauses/total/gc:seconds", "/gc/pauses:seconds"}
	schedLatName = "/sched/latencies:seconds"
)

// runtimeHists snapshots the audience process's GC-pause and
// scheduler-latency histograms.
func runtimeHists() (gc, sched *metrics.Float64Histogram) {
	samples := []metrics.Sample{{Name: schedLatName}}
	for _, n := range gcPauseNames {
		samples = append(samples, metrics.Sample{Name: n})
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64Histogram {
		sched = samples[0].Value.Float64Histogram()
	}
	for _, s := range samples[1:] {
		if s.Value.Kind() == metrics.KindFloat64Histogram {
			gc = s.Value.Float64Histogram()
			break
		}
	}
	return gc, sched
}

// histDeltaQuantile returns the q-quantile, in milliseconds, of the
// observations that landed in a runtime histogram between two snapshots
// (upper bucket edge, capped at the last finite edge). It is 0 when
// nothing landed in between.
func histDeltaQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range after.Counts {
		cum += after.Counts[i] - before.Counts[i]
		if cum >= rank {
			hi := after.Buckets[i+1]
			if hi > 1e9 { // +Inf bucket: report its finite lower edge
				hi = after.Buckets[i]
			}
			return hi * 1000
		}
	}
	return 0
}

// stamp is the environment a record was taken in. Two records whose
// stamps differ in any field but Seed are not comparable.
type stamp struct {
	Commit            string `json:"commit"`
	Dirty             string `json:"dirty"`
	GoVersion         string `json:"go_version"`
	Kernel            string `json:"kernel"`
	Nproc             int    `json:"nproc"`
	AudienceProcs     int    `json:"gomaxprocs_audience"`
	ServerProcs       int    `json:"gomaxprocs_server"`
	Sendmmsg          string `json:"sendmmsg"`
	GSO               string `json:"gso"`
	Recvmmsg          string `json:"recvmmsg"`
	GRO               string `json:"gro"`
	KillSwitches      string `json:"kill_switches"`
	Workload          string `json:"workload"`
	Seconds           int    `json:"seconds"`
	Seed              uint64 `json:"seed"`
	Trace             int    `json:"trace"`
	BenchmarkRevision string `json:"benchmark_revision"`
}

// benchmarkRevision names the metric and workload definitions; bump it
// whenever either changes so older records read as not comparable.
const benchmarkRevision = "2"

func newStamp(workload string, seed uint64, seconds, trace int) stamp {
	s := stamp{
		Commit: "unavailable", Dirty: "unavailable",
		GoVersion: runtime.Version(), Kernel: "unavailable",
		Nproc: runtime.NumCPU(), AudienceProcs: runtime.GOMAXPROCS(0),
		Sendmmsg: "n/a", GSO: "n/a", Recvmmsg: "n/a", GRO: "n/a",
		Workload: workload, Seconds: seconds, Seed: seed, Trace: trace,
		BenchmarkRevision: benchmarkRevision,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Dirty = kv.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		s.Kernel = strings.TrimSpace(string(b))
	}
	var kill []string
	for _, env := range []string{mcast.NoSendmmsgEnv, mcast.NoGSOEnv, mcast.NoRecvmmsgEnv, mcast.NoGROEnv} {
		if os.Getenv(env) != "" {
			kill = append(kill, env)
		}
	}
	s.KillSwitches = strings.Join(kill, ",")
	return s
}

// differs lists the fields other than Seed in which two stamps differ.
func (s stamp) differs(o stamp) []string {
	fields := func(st stamp) map[string]any {
		st.Seed = 0
		var m map[string]any
		data, _ := json.Marshal(st) // a flat struct of strings and ints
		_ = json.Unmarshal(data, &m)
		return m
	}
	a, b := fields(s), fields(o)
	var out []string
	for k, v := range a {
		if fmt.Sprint(v) != fmt.Sprint(b[k]) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
