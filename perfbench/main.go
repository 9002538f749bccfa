// Command perfbench is the repository's benchmark. It runs one named
// workload through the public APIs — server.New/Start/ServeStatus in a
// child process, viewer.NewMux/Run and client.Watch in this one, or
// sim.Sweep over every scheme — checks the outputs, and prints each
// metric with its unit followed by one JSON result line:
//
//	bash perfbench/run.sh --workload dense_lossless --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs traced and
// untraced rounds and reports the per-layer metrics, spans and tracing
// overhead. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// outDir holds the run records and trace files, inside the checkout.
const outDir = ".bench_build/perfbench"

// watchdog bounds one invocation; on expiry every child is killed.
const watchdog = 170 * time.Second

func main() {
	var (
		workload  = flag.String("workload", "", "workload name")
		seed      = flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds   = flag.Int("seconds", runSeconds, "how long the run measures")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		childMode = flag.String("child", "", "internal: run as the server or sweep child process")
		round     = flag.Int("round", 0, "internal: round index of a child process")
		printJSON = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printJSON {
		out, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}
	sp, err := lookup(*workload)
	if err != nil {
		fatal(err)
	}
	if *childMode != "" {
		if err := childMain(*childMode, sp, *seed, *round); err != nil {
			fatal(fmt.Errorf("child %s: %w", *childMode, err))
		}
		return
	}
	if *seconds < 1 || *seconds > 120 {
		fatal(fmt.Errorf("--seconds %d outside [1, 120]", *seconds))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d, want 0 or 1", *trace))
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v\n", watchdog)
		killChildren()
		os.Exit(2)
	})
	nproc := runtime.NumCPU()
	procs := nproc / 2
	if procs < 1 {
		procs = 1
	}
	runtime.GOMAXPROCS(procs)
	b := &bench{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: procs, nproc: nproc, t0: time.Now()}
	if err := b.run(); err != nil {
		killChildren()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench is one invocation: a workload, its seed, and what the rounds
// recorded.
type bench struct {
	sp      spec
	seed    uint64
	seconds int
	trace   bool
	procs   int // GOMAXPROCS of each process (the sweep child: nproc)
	nproc   int
	t0      time.Time

	mu       sync.Mutex
	failures []string
	spans    []spanRec
	round    int
}

// spanRec is one recorded span: a public call, the round it belongs to,
// and its parent phase (setup or window).
type spanRec struct {
	Name    string  `json:"name"`
	Round   int     `json:"round"`
	Parent  string  `json:"parent"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

var spanParent = map[string]string{
	"server_start": "setup", "status_ready": "setup", "mux_handshake": "setup", "sweep_setup": "setup",
}

// spanAt records a span when the round is traced. Spans stay in memory
// until the run ends.
func (b *bench) spanAt(name string, start, end time.Time, traced bool) {
	if !traced {
		return
	}
	parent := spanParent[name]
	if parent == "" {
		parent = "window"
	}
	b.mu.Lock()
	b.spans = append(b.spans, spanRec{Name: name, Round: b.round, Parent: parent,
		StartMS: ms(start.Sub(b.t0)), DurMS: ms(end.Sub(start))})
	b.mu.Unlock()
}

func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// A run takes setupBatch set-up samples before each round, and tops up
// to setupSamples after the last, so the samples spread over the run
// instead of sharing one moment's host noise; setup_s is their median.
// setupRound numbers the samples apart from the measured rounds, so
// their generated inputs differ.
const (
	setupBatch   = 5
	setupSamples = 25
	setupRound   = 1 << 20
)

// setupSampler takes set-up samples, each from a quiesced process.
type setupSampler struct {
	setup   func(i int) (time.Duration, error)
	samples []float64
}

func (s *setupSampler) take(n int) error {
	for i := 0; i < n; i++ {
		quiesce()
		d, err := s.setup(setupRound + len(s.samples))
		if err != nil {
			return fmt.Errorf("set-up sample %d: %w", len(s.samples), err)
		}
		s.samples = append(s.samples, d.Seconds())
	}
	return nil
}

// topUp takes samples until there are setupSamples.
func (s *setupSampler) topUp() error {
	if n := setupSamples - len(s.samples); n > 0 {
		return s.take(n)
	}
	return nil
}

// outcome is what a run reports besides its metrics.
type outcome struct {
	attempted, failed int64
	vals              map[string]float64
	// unavailable names per-layer metrics this host cannot measure; they
	// are left out rather than reported as zero.
	unavailable []string
	stamp       stamp
	detail      map[string]any
}

func (b *bench) run() error {
	var (
		o   *outcome
		err error
	)
	if b.sp.sweep {
		o, err = b.runSweep()
	} else {
		o, err = b.runLive()
	}
	if err != nil {
		return err
	}
	if extra := unknown(o.vals); len(extra) > 0 {
		return fmt.Errorf("undeclared metrics %v", extra)
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
		skip := map[string]bool{}
		for _, name := range o.unavailable {
			skip[name] = true
		}
		for _, d := range perLayer {
			if _, ok := o.vals[d.Name]; !ok && !skip[d.Name] {
				o.vals[d.Name] = 0 // a layer this workload does not exercise
			}
		}
	}
	metrics, order, missing := pick(defs, o.vals)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s unavailable on this run\n", name)
	}
	for _, name := range order {
		m := metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	b.record(o, metrics)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.failures) == 0, o.attempted, o.failed, metrics}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// record appends the run to the records file, flags it when its stamp
// differs from the previous record of the same workload and mode, and
// writes the traced run's spans and series.
func (b *bench) record(o *outcome, metrics map[string]metric) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: records:", err)
		return
	}
	path := filepath.Join(outDir, "records.jsonl")
	comparable, differs := true, []string(nil)
	if data, err := os.ReadFile(path); err == nil {
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		for i := len(lines) - 1; i >= 0; i-- {
			var prev struct{ Stamp stamp }
			if json.Unmarshal([]byte(lines[i]), &prev) != nil {
				continue
			}
			if prev.Stamp.Workload == o.stamp.Workload && prev.Stamp.Trace == o.stamp.Trace {
				differs = o.stamp.differs(prev.Stamp)
				comparable = len(differs) == 0
				break
			}
		}
	}
	if !comparable {
		fmt.Fprintf(os.Stderr, "perfbench: not comparable with the previous %s record: %s differ\n",
			o.stamp.Workload, strings.Join(differs, ", "))
	}
	stampLine, _ := json.Marshal(o.stamp)
	fmt.Printf("stamp %s comparable=%v\n", stampLine, comparable)
	rec := map[string]any{
		"stamp": o.stamp, "comparable": comparable, "not_comparable_fields": differs,
		"metrics": metrics, "failures": b.failures, "attempted": o.attempted, "failed": o.failed,
		"detail": o.detail, "time": time.Now().UTC().Format(time.RFC3339),
	}
	if line, err := json.Marshal(rec); err == nil {
		if f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
			_, _ = f.Write(append(line, '\n'))
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: records:", err)
			}
		}
	}
	if b.trace {
		tr := map[string]any{"stamp": o.stamp, "spans": b.spans, "series": o.detail["status_series"]}
		data, err := json.Marshal(tr)
		if err == nil {
			name := fmt.Sprintf("trace-%s-seed%d.json", b.sp.name, b.seed)
			err = os.WriteFile(filepath.Join(outDir, name), data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
		}
	}
}

// rounds runs rounds until the measured time is spent: at least one
// (two when traced, alternating untraced and traced), and no new round
// once the previous round's length would overrun --seconds.
func (b *bench) rounds(run func(round int, traced bool) error) error {
	budget := time.Duration(b.seconds) * time.Second
	start := time.Now()
	need := 1
	if b.trace {
		need = 2
	}
	for round := 0; ; round++ {
		b.mu.Lock()
		b.round = round
		b.mu.Unlock()
		t := time.Now()
		if err := run(round, b.trace && round%2 == 1); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if round+1 >= need && time.Since(start)+time.Since(t) > budget {
			return nil
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileSorted is the nearest-rank q-quantile of sorted samples.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
