package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/metrics"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/sim"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

// The sim_sweep population: the paper's default configuration (M = 10
// two-hour videos at 1.5 Mbit/s on a 320 Mbit/s server, SB capped at
// W = 52) with arrivals uniform over a 1000-minute window.
const (
	sweepMbps      = 320
	sweepWidth     = 52
	sweepWindowMin = 1000
)

// sweepSchemes is the fixed scheme order of every sweep round.
var sweepSchemes = []string{"sb", "pb_a", "pb_b", "ppb_a", "ppb_b", "staggered"}

// closedForm is a scheme's analytic worst access latency and buffer.
type closedForm struct {
	WaitMin    float64 `json:"wait_min"`
	BufferMbit float64 `json:"buffer_mbit"`
}

// sweepReady is what the sweep child reports once every scheme is built.
type sweepReady struct {
	Closed map[string]closedForm `json:"closed"`
	// PlanMS is the exact worst-case buffer enumeration of the SB scheme
	// over every playback-start phase (core.PlanSchedule + Profile);
	// PlanBufferMbit is its result, which must equal the closed form.
	PlanMS         float64 `json:"plan_ms"`
	PlanPhases     int64   `json:"plan_phases"`
	PlanBufferMbit float64 `json:"plan_buffer_mbit"`
	Workers        int     `json:"workers"`
}

// sweepStats fingerprints one scheme's sweep: every statistic the sweep
// reports, compared bit for bit between worker counts.
type sweepStats struct {
	Clients   int       `json:"clients"`
	Seconds   float64   `json:"seconds"`
	Wait      []float64 `json:"wait"`   // count, sum, min, max, p50, p99
	Buffer    []float64 `json:"buffer"` // count, sum, min, max, p50, p99
	Streams   []float64 `json:"streams"`
	WaitP50   float64   `json:"wait_p50_min"`
	WaitP99   float64   `json:"wait_p99_min"`
	MaxWait   float64   `json:"max_wait_min"`
	MaxBuffer float64   `json:"max_buffer_mbit"`
}

// sweepResult is one round's per-scheme statistics.
type sweepResult struct {
	Schemes map[string]sweepStats `json:"schemes"`
	Error   string                `json:"error,omitempty"`
}

// sweepChild is the sweep child's state: the built schemes and the
// round's population seed.
type sweepChild struct {
	sims    map[string]sim.ClientSim
	seed    uint64
	clients int
	workers int
	ready   *sweepReady
}

// buildSweepSchemes constructs every scheme of the sweep with its closed
// forms.
func buildSweepSchemes() (map[string]sim.ClientSim, map[string]closedForm, *core.Scheme, error) {
	cfg := vod.DefaultConfig(sweepMbps)
	sims := map[string]sim.ClientSim{}
	closed := map[string]closedForm{}
	add := func(name string, cs sim.ClientSim, p vod.Performer) {
		sims[name] = cs
		closed[name] = closedForm{WaitMin: p.AccessLatencyMin(), BufferMbit: p.BufferMbit()}
	}
	sb, err := core.New(cfg, sweepWidth)
	if err != nil {
		return nil, nil, nil, err
	}
	add("sb", sim.NewSB(sb), sb)
	for _, m := range []struct {
		name string
		pm   pyramid.Method
		qm   ppb.Method
	}{{"a", pyramid.MethodA, ppb.MethodA}, {"b", pyramid.MethodB, ppb.MethodB}} {
		pb, err := pyramid.New(cfg, m.pm)
		if err != nil {
			return nil, nil, nil, err
		}
		add("pb_"+m.name, sim.NewPB(pb), pb)
		pp, err := ppb.New(cfg, m.qm)
		if err != nil {
			return nil, nil, nil, err
		}
		add("ppb_"+m.name, sim.NewPPB(pp), pp)
	}
	st, err := staggered.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	add("staggered", sim.NewStaggered(st), st)
	return sims, closed, sb, nil
}

func newSweepChild(sp spec, seed uint64, round int) (*sweepChild, error) {
	sims, closed, sb, err := buildSweepSchemes()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	wc, err := sb.WorstCaseBuffer(0)
	if err != nil {
		return nil, err
	}
	planMS := ms(time.Since(t0))
	return &sweepChild{
		sims: sims, seed: roundSeed(seed, round), clients: sp.sweepClients,
		workers: runtime.GOMAXPROCS(0),
		ready: &sweepReady{
			Closed:         closed,
			PlanMS:         planMS,
			PlanPhases:     wc.Phases,
			PlanBufferMbit: float64(wc.BufferUnits) * 60 * sb.Config().RateMbps * sb.UnitMinutes(),
			Workers:        runtime.GOMAXPROCS(0),
		},
	}, nil
}

// roundSeed is the population seed of one sweep round.
func roundSeed(seed uint64, round int) uint64 {
	return des.SubSeed(des.SubSeed(seed, seedSweep), uint64(round))
}

func (c *sweepChild) run() any {
	res, err := runSweeps(c.sims, c.clients, c.seed, c.workers)
	if err != nil {
		return sweepResult{Error: err.Error()}
	}
	return res
}

// runSweeps sweeps every scheme in order with the given worker count.
func runSweeps(sims map[string]sim.ClientSim, clients int, seed uint64, workers int) (sweepResult, error) {
	out := sweepResult{Schemes: map[string]sweepStats{}}
	cfg := vod.DefaultConfig(sweepMbps)
	for i, name := range sweepSchemes {
		t0 := time.Now()
		res, err := sim.Sweep(sims[name], clients, sweepWindowMin, cfg.Videos, des.SubSeed(seed, uint64(i)), sim.Workers(workers))
		if err != nil {
			return out, fmt.Errorf("sweep %s: %w", name, err)
		}
		out.Schemes[name] = sweepStats{
			Clients:   res.Clients,
			Seconds:   time.Since(t0).Seconds(),
			Wait:      fingerprint(&res.WaitMin),
			Buffer:    fingerprint(&res.BufferMbit),
			Streams:   fingerprint(&res.Streams),
			WaitP50:   res.WaitMin.Quantile(0.5),
			WaitP99:   res.WaitMin.Quantile(0.99),
			MaxWait:   res.WaitMin.Max(),
			MaxBuffer: res.BufferMbit.Max(),
		}
	}
	return out, nil
}

func fingerprint(s *metrics.Summary) []float64 {
	return []float64{float64(s.Count()), s.Sum(), s.Min(), s.Max(), s.Quantile(0.5), s.Quantile(0.99)}
}

// sweepRound is the parent's record of one sim_sweep round.
type sweepRound struct {
	traced  bool
	setup   time.Duration
	window  time.Duration
	srvCPU  float64 // child (nproc-worker sweep) CPU seconds
	audCPU  float64 // replay child (one-worker replay) CPU seconds
	srvHWM  int64
	audHWM  int64
	ready   *sweepReady
	res     sweepResult
	replayS float64
}

// runSweepRound spawns a sweep child (set-up: process start, scheme
// construction, exact SB plan enumeration), has it sweep every scheme
// with nproc workers, then replays the same populations in a fresh
// one-worker child and checks the two agree bit for bit and meet the
// closed forms. The replay runs in a process of its own so its peak RSS
// is one round's, not the benchmark process's lifetime peak.
func (b *bench) runSweepRound(round int, traced bool) (*sweepRound, error) {
	t0 := time.Now()
	c, err := startChild("sweep", b.sp, b.seed, round, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	defer c.kill()
	r := &sweepRound{traced: traced, setup: time.Since(t0), ready: c.ready.Sweep}
	b.spanAt("sweep_setup", t0, time.Now(), traced)
	if r.ready == nil {
		return nil, fmt.Errorf("sweep child sent no scheme set")
	}
	u0, err := c.usage()
	if err != nil {
		return nil, err
	}
	w0 := time.Now()
	if err := c.request("go", &r.res); err != nil {
		return nil, err
	}
	if r.res.Error != "" {
		b.fail("sweep round %d: %s", round, r.res.Error)
		return nil, fmt.Errorf("%s", r.res.Error)
	}
	u1, err := c.usage()
	if err != nil {
		return nil, err
	}
	sweepS := time.Since(w0)
	r.srvCPU = u1.cpu() - u0.cpu()
	r.srvHWM = u1.HWMKiB
	if err := c.stop(); err != nil {
		return nil, err
	}

	rc, err := startChild("sweep", b.sp, b.seed, round, 1)
	if err != nil {
		return nil, err
	}
	defer rc.kill()
	a0, err := rc.usage()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var replay sweepResult
	if err := rc.request("go", &replay); err != nil {
		return nil, err
	}
	if replay.Error != "" {
		b.fail("sweep replay round %d: %s", round, replay.Error)
		return nil, fmt.Errorf("%s", replay.Error)
	}
	r.replayS = time.Since(t1).Seconds()
	a1, err := rc.usage()
	if err != nil {
		return nil, err
	}
	// The window is the two sweeps' time, without the replay child's
	// launch between them.
	r.window = sweepS + time.Since(t1)
	r.audCPU = a1.cpu() - a0.cpu()
	r.audHWM = a1.HWMKiB
	if err := rc.stop(); err != nil {
		return nil, err
	}
	// The child times each scheme's sweep; its spans are laid end to
	// end from the start of the window.
	at := w0
	for _, name := range sweepSchemes {
		d := time.Duration(r.res.Schemes[name].Seconds * float64(time.Second))
		b.spanAt("sweep_"+name, at, at.Add(d), traced)
		at = at.Add(d)
	}
	b.spanAt("sweep_replay_1worker", t1, t1.Add(time.Duration(r.replayS*float64(time.Second))), traced)
	checkSweep(b, round, r, replay)
	return r, nil
}

// checkSweep holds the sweep's correctness checks: nproc workers and one
// worker give identical statistics, every simulated wait and buffer stays
// within its closed form and the sampled worst wait reaches it, and the
// exact SB plan enumeration reproduces the closed-form buffer.
func checkSweep(b *bench, round int, r *sweepRound, replay sweepResult) {
	for _, name := range sweepSchemes {
		got, want := r.res.Schemes[name], replay.Schemes[name]
		if !equalFloats(got.Wait, want.Wait) || !equalFloats(got.Buffer, want.Buffer) || !equalFloats(got.Streams, want.Streams) {
			b.fail("sweep %s round %d: %d-worker statistics differ from 1-worker replay", name, round, r.ready.Workers)
		}
		cf := r.ready.Closed[name]
		if got.MaxWait > cf.WaitMin*(1+1e-9)+1e-9 {
			b.fail("sweep %s: worst simulated wait %.6g min exceeds closed form %.6g", name, got.MaxWait, cf.WaitMin)
		}
		// With thousands of uniform arrivals the sampled worst wait sits
		// within a fraction of a percent of the closed form.
		if got.MaxWait < 0.99*cf.WaitMin {
			b.fail("sweep %s: worst simulated wait %.6g min below 99%% of closed form %.6g", name, got.MaxWait, cf.WaitMin)
		}
		if got.MaxBuffer > cf.BufferMbit*(1+1e-6)+1e-6 {
			b.fail("sweep %s: worst simulated buffer %.6g Mbit exceeds closed form %.6g", name, got.MaxBuffer, cf.BufferMbit)
		}
	}
	sb := r.ready.Closed["sb"]
	if math.Abs(r.ready.PlanBufferMbit-sb.BufferMbit) > 1e-6*math.Max(1, sb.BufferMbit) {
		b.fail("sb plan enumeration over %d phases: worst buffer %.6g Mbit, closed form %.6g", r.ready.PlanPhases, r.ready.PlanBufferMbit, sb.BufferMbit)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// schemeFamily maps a sweep scheme to its per-layer throughput metric.
func schemeFamily(name string) string {
	return strings.SplitN(name, "_", 2)[0]
}

// runSweep runs sim_sweep rounds and turns them into metrics.
func (b *bench) runSweep() (*outcome, error) {
	ss := &setupSampler{setup: func(i int) (time.Duration, error) {
		t0 := time.Now()
		c, err := startChild("sweep", b.sp, b.seed, i, b.nproc)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, c.stop()
	}}
	var rounds []*sweepRound
	err := b.rounds(func(round int, traced bool) error {
		if err := ss.take(setupBatch); err != nil {
			return err
		}
		quiesce()
		r, err := b.runSweepRound(round, traced)
		if err != nil {
			return err
		}
		rounds = append(rounds, r)
		return nil
	})
	if err == nil {
		err = ss.topUp()
	}
	if err != nil {
		return nil, err
	}
	setups := ss.samples
	var plain, traced []*sweepRound
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	o := &outcome{vals: map[string]float64{}, stamp: newStamp(b.sp.name, b.seed, b.seconds, boolInt(b.trace))}
	o.stamp.ServerProcs = b.nproc
	e2e := sweepE2E(plain, setups)
	for k, v := range e2e.vals {
		o.vals[k] = v
	}
	o.attempted, o.failed = e2e.attempted, e2e.failed
	o.detail = map[string]any{"rounds": len(rounds), "traced_rounds": len(traced), "setup_samples_s": setups,
		"clients_per_scheme": b.sp.sweepClients, "workers": b.nproc, "round_clients_per_cpu_s": e2e.rates,
		"round_audience_rss_mib": e2e.audRSS}
	if !b.trace {
		return o, nil
	}
	te := sweepE2E(traced, nil)
	o.vals["trace.overhead_server_cpu"] = ratio(te.vals["server_cpu_cores"]-e2e.vals["server_cpu_cores"], e2e.vals["server_cpu_cores"])
	o.vals["trace.overhead_audience_cpu"] = ratio(te.vals["audience_cpu_cores"]-e2e.vals["audience_cpu_cores"], e2e.vals["audience_cpu_cores"])
	var ps []float64
	for _, r := range plain {
		ps = append(ps, r.setup.Seconds())
	}
	o.vals["trace.overhead_setup"] = ratio(te.vals["setup_s"]-median(ps), median(ps))
	clients := map[string]float64{}
	secs := map[string]float64{}
	perScheme := map[string][]float64{}
	var plan []float64
	for _, r := range traced {
		plan = append(plan, r.ready.PlanMS)
		for _, name := range sweepSchemes {
			st := r.res.Schemes[name]
			clients[schemeFamily(name)] += float64(st.Clients)
			secs[schemeFamily(name)] += st.Seconds
			perScheme[name] = append(perScheme[name], st.Seconds)
		}
	}
	var allClients, allSecs float64
	for fam := range clients {
		o.vals["sim."+fam+"_clients_per_s"] = ratio(clients[fam], secs[fam])
		allClients += clients[fam]
		allSecs += secs[fam]
	}
	o.vals["sim_clients_per_s"] = ratio(allClients, allSecs)
	for _, name := range sweepSchemes {
		o.vals["span.sweep_"+name+"_s"] = median(perScheme[name])
	}
	o.vals["core.plan_ms"] = median(plan)
	o.vals["start_wait.samples"] = float64(te.waitSamples)
	var setupMS []float64
	for _, r := range traced {
		setupMS = append(setupMS, ms(r.setup))
	}
	o.vals["span.server_start_ms"] = median(setupMS)
	return o, nil
}

// sweepE2E computes the end-to-end metrics over sweep rounds: waits are
// the SB scheme's simulated start waits in D1 units; throughput is
// simulated clients per CPU-second of the nproc-worker sweep (the wall
// rate swings with CPU steal on a shared host and is the traced
// sim_clients_per_s); CPU is per second of the round's window. Each is
// the median over rounds.
func sweepE2E(rounds []*sweepRound, setups []float64) e2eResult {
	v := map[string]float64{}
	if setups == nil {
		for _, r := range rounds {
			setups = append(setups, r.setup.Seconds())
		}
	}
	var p50, p99, hwm, audHWM, srvCores, audCores, rate []float64
	var clients, samples int64
	for _, r := range rounds {
		d1 := r.ready.Closed["sb"].WaitMin
		sb := r.res.Schemes["sb"]
		p50 = append(p50, sb.WaitP50/d1)
		p99 = append(p99, sb.WaitP99/d1)
		samples += int64(sb.Clients)
		var n int64
		for _, name := range sweepSchemes {
			n += int64(r.res.Schemes[name].Clients)
		}
		clients += n
		rate = append(rate, ratio(float64(n), r.srvCPU))
		w := r.window.Seconds()
		srvCores = append(srvCores, ratio(r.srvCPU, w))
		audCores = append(audCores, ratio(r.audCPU, w))
		hwm = append(hwm, float64(r.srvHWM)/1024)
		audHWM = append(audHWM, float64(r.audHWM)/1024)
	}
	v["setup_s"] = median(setups)
	v["start_wait_p50_units"] = median(p50)
	v["start_wait_p99_units"] = median(p99)
	// A simulated client that missed a deadline fails the whole sweep
	// (and the run), so every reported client played intact.
	v["intact_viewer_share"] = 1
	v["intact_chunk_share"] = 1
	v["server_cpu_cores"] = median(srvCores)
	v["audience_cpu_cores"] = median(audCores)
	v["server_rss_mib"] = median(hwm)
	v["audience_rss_mib"] = median(audHWM)
	v["viewers_per_s"] = median(rate)
	return e2eResult{vals: v, attempted: clients, waitSamples: samples, rates: rate, audRSS: audHWM}
}
