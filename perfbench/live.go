package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"skyscraper/internal/client"
	"skyscraper/internal/des"
	"skyscraper/internal/server"
	"skyscraper/internal/viewer"
)

// liveRound is one round of a live workload: a fresh server child, one
// mux run (plus closed-loop client sessions on stalled_server), and the
// ledgers read around the measured window.
type liveRound struct {
	traced bool
	// Set-up: process launch through the audience's handshake, and its
	// parts.
	setup, statusReady, handshake time.Duration
	serverStartMS                 float64
	// The measured window, from just before the audience starts to just
	// after the last session returns.
	window time.Duration
	muxRun time.Duration

	srv0, srv1   usage
	aud0, aud1   usage
	st0, st1     server.StatusSnapshot
	udp0, udp1   udpCounters
	gc0, gc1     *metrics.Float64Histogram
	sched0       *metrics.Float64Histogram
	sched1       *metrics.Float64Histogram
	res          *viewer.Result
	muxErr       error
	clients      []clientOutcome
	stalls       int
	lateness     []float64
	statusSeries []statusSample
}

// clientOutcome is one closed-loop client.Watch session.
type clientOutcome struct {
	stats *client.Stats
	err   error
	dur   time.Duration
}

// statusSample is one per-unit /status reading of the traced run.
type statusSample struct {
	TMS           float64 `json:"t_ms"`
	DatagramsSent int64   `json:"datagrams_sent"`
	Wakeups       int64   `json:"egress_wakeups"`
	Syscalls      int64   `json:"egress_syscalls"`
	Superframes   int64   `json:"superframes"`
	NacksServed   int64   `json:"nacks_served"`
	Repairs       int64   `json:"repairs_served"`
	RepairDgrams  int64   `json:"repair_datagrams"`
	DriftEvents   int64   `json:"drift_events"`
	Sessions      int64   `json:"control_sessions"`
}

var statusClient = &http.Client{Timeout: 10 * time.Second}

func getStatus(base string) (server.StatusSnapshot, error) {
	var st server.StatusSnapshot
	resp, err := statusClient.Get(base + "/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func (b *bench) muxConfig(addr string, round int) viewer.MuxConfig {
	sp := b.sp
	return viewer.MuxConfig{
		ServerAddr:    addr,
		Viewers:       sp.viewers,
		Videos:        sp.videos,
		SpreadUnits:   sp.spread,
		Seed:          des.SubSeed(des.SubSeed(b.seed, seedMux), uint64(round)),
		Workers:       muxWorkers,
		JoinLeadFrac:  joinLead,
		SlackFrac:     sp.slack,
		RepairLagFrac: sp.repairLag,
	}
}

// setupLive launches a server child and brings the audience to the point
// of admission: status endpoint answering, mux handshake done.
func (b *bench) setupLive(round int, traced bool) (*child, *viewer.Mux, *liveRound, error) {
	t0 := time.Now()
	c, err := startChild("server", b.sp, b.seed, round, b.procs)
	if err != nil {
		return nil, nil, nil, err
	}
	r := &liveRound{traced: traced, serverStartMS: c.ready.StartMS}
	b.spanAt("server_start", t0, time.Now(), traced)
	t1 := time.Now()
	if _, err := getStatus(c.ready.Status); err != nil {
		c.kill()
		return nil, nil, nil, err
	}
	r.statusReady = time.Since(t1)
	b.spanAt("status_ready", t1, time.Now(), traced)
	t2 := time.Now()
	mux, err := viewer.NewMux(b.muxConfig(c.ready.Addr, round))
	if err != nil {
		c.kill()
		return nil, nil, nil, fmt.Errorf("mux handshake: %w", err)
	}
	r.handshake = time.Since(t2)
	r.setup = time.Since(t0)
	b.spanAt("mux_handshake", t2, time.Now(), traced)
	return c, mux, r, nil
}

// runLiveRound runs one round end to end.
func (b *bench) runLiveRound(round int, traced bool) (*liveRound, error) {
	c, mux, r, err := b.setupLive(round, traced)
	if err != nil {
		return nil, err
	}
	defer c.kill()
	sp := b.sp

	var pr *probe
	if traced {
		if pr, err = startProbe(c.ready.Addr, probeVideos); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	if r.st0, err = getStatus(c.ready.Status); err != nil {
		return nil, err
	}
	if r.srv0, err = c.usage(); err != nil {
		return nil, err
	}
	r.udp0 = readUDPCounters()
	r.gc0, r.sched0 = runtimeHists()
	r.aud0 = selfUsage()
	w0 := time.Now()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	if sp.stallEvery > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.stalls = stallLoop(c.pid(), sp.stallEvery, sp.stallFor, stop)
		}()
	}
	if traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			r.statusSeries = sampleStatus(c.ready.Status, sp.unit, w0, stop)
		}()
	}
	stopClients := make(chan struct{})
	var cw sync.WaitGroup
	var cmu sync.Mutex
	loops := b.clientLoops()
	for i := 0; i < loops; i++ {
		cw.Add(1)
		go func(loop int) {
			defer cw.Done()
			for k := 0; ; k++ {
				select {
				case <-stopClients:
					return
				default:
				}
				out := b.watch(c.ready.Addr, round, loop, k, loops)
				b.spanAt("client_watch", time.Now().Add(-out.dur), time.Now(), traced)
				cmu.Lock()
				r.clients = append(r.clients, out)
				cmu.Unlock()
			}
		}(i)
	}

	m0 := time.Now()
	r.res, r.muxErr = mux.Run()
	r.muxRun = time.Since(m0)
	b.spanAt("mux_run", m0, time.Now(), traced)
	close(stopClients)
	cw.Wait()
	close(stop)
	bg.Wait()
	r.window = time.Since(w0)

	r.aud1 = selfUsage()
	r.gc1, r.sched1 = runtimeHists()
	r.udp1 = readUDPCounters()
	if r.srv1, err = c.usage(); err != nil {
		return nil, err
	}
	if r.st1, err = getStatus(c.ready.Status); err != nil {
		return nil, err
	}
	if pr != nil {
		if r.lateness, err = pr.stop(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	if err := c.stop(); err != nil {
		return nil, fmt.Errorf("server child: %w", err)
	}
	if r.res == nil {
		return nil, fmt.Errorf("mux run: %v", r.muxErr)
	}
	return r, nil
}

// setupOnly takes one set-up sample: launch, status, handshake, then
// tear the server down without running the audience. The unrun mux has
// no close method; its control socket is reclaimed when the mux is
// collected.
func (b *bench) setupOnly(round int) (time.Duration, error) {
	c, _, r, err := b.setupLive(round, false)
	if err != nil {
		return 0, err
	}
	if err := c.stop(); err != nil {
		return 0, err
	}
	return r.setup, nil
}

// probeVideos is how many videos the traced run's probe subscribes to
// (every channel of each).
const probeVideos = 2

// clientLoops is how many closed-loop client sessions run at once.
func (b *bench) clientLoops() int {
	if b.sp.clients {
		return b.nproc
	}
	return 0
}

// watch runs one closed-loop client session.
func (b *bench) watch(addr string, round, loop, k, loops int) clientOutcome {
	sp := b.sp
	idx := uint64(round)<<32 | uint64(loop*1000+k)
	t0 := time.Now()
	st, err := client.Watch(client.Config{
		ServerAddr:    addr,
		Video:         (loop + k*loops) % sp.videos,
		JoinLeadFrac:  joinLead,
		SlackFrac:     sp.slack,
		RepairLagFrac: sp.repairLag,
		AllowDegraded: true,
		Seed:          des.SubSeed(des.SubSeed(b.seed, seedClients), idx),
	})
	return clientOutcome{stats: st, err: err, dur: time.Since(t0)}
}

// stallLoop freezes the server process for dur out of every period until
// stop closes, always leaving it running, and returns the stall count.
func stallLoop(pid int, every, dur time.Duration, stop <-chan struct{}) int {
	t := time.NewTicker(every)
	defer t.Stop()
	stalls := 0
	for {
		select {
		case <-stop:
			return stalls
		case <-t.C:
		}
		if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
			return stalls
		}
		time.Sleep(dur)
		_ = syscall.Kill(pid, syscall.SIGCONT)
		stalls++
	}
}

// sampleStatus reads /status once per unit until stop closes.
func sampleStatus(base string, unit time.Duration, t0 time.Time, stop <-chan struct{}) []statusSample {
	t := time.NewTicker(unit)
	defer t.Stop()
	var out []statusSample
	for {
		select {
		case <-stop:
			return out
		case <-t.C:
		}
		st, err := getStatus(base)
		if err != nil {
			continue
		}
		out = append(out, statusSample{
			TMS:           ms(time.Since(t0)),
			DatagramsSent: st.DatagramsSent,
			Wakeups:       st.EgressWakeups,
			Syscalls:      st.EgressSyscalls,
			Superframes:   st.Superframes,
			NacksServed:   st.NacksServed,
			Repairs:       st.RepairsServed,
			RepairDgrams:  st.RepairDatagrams,
			DriftEvents:   st.PacerDriftEvents,
			Sessions:      st.ControlSessions,
		})
	}
}
