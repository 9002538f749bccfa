package main

import (
	"math"
	"sort"

	"skyscraper/internal/viewer"
)

const mib = 1 << 20

// runLive runs a live workload's rounds and turns them into metrics.
func (b *bench) runLive() (*outcome, error) {
	ss := &setupSampler{setup: b.setupOnly}
	var rounds []*liveRound
	err := b.rounds(func(round int, traced bool) error {
		if err := ss.take(setupBatch); err != nil {
			return err
		}
		quiesce()
		r, err := b.runLiveRound(round, traced)
		if err != nil {
			return err
		}
		b.checkLive(round, r)
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
	var plain, traced []*liveRound
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	o := &outcome{vals: map[string]float64{}, stamp: newStamp(b.sp.name, b.seed, b.seconds, boolInt(b.trace))}
	o.stamp.ServerProcs = rounds[0].srv0.Procs
	o.stamp.Sendmmsg = yesNo(rounds[0].st0.Vectorized)
	o.stamp.GSO = yesNo(rounds[0].st0.GSO)
	res := rounds[0].res
	o.stamp.Recvmmsg = yesNo(res.BatchedReads > 0)
	o.stamp.GRO = yesNo(res.GroFallbacks == 0)

	// The end-to-end metrics come from untraced rounds only.
	e2e := b.liveE2E(plain, setups)
	for k, v := range e2e.vals {
		o.vals[k] = v
	}
	o.attempted, o.failed = e2e.attempted, e2e.failed
	all := b.totals(rounds)
	o.detail = map[string]any{
		"rounds": len(rounds), "traced_rounds": len(traced), "setup_samples_s": setups,
		"start_wait_samples": e2e.waitSamples, "round_server_cores": all.srvCores,
		"round_audience_cores": all.audCores, "round_server_rss_mib": all.srvHWM,
		"round_outcomes": roundOutcomes(rounds),
	}
	if b.trace {
		tv, unavailable := b.liveLayers(traced)
		for k, v := range tv {
			o.vals[k] = v
		}
		o.unavailable = unavailable
		te := b.liveE2E(traced, nil)
		o.vals["trace.overhead_server_cpu"] = ratio(te.vals["server_cpu_cores"]-e2e.vals["server_cpu_cores"], e2e.vals["server_cpu_cores"])
		o.vals["trace.overhead_audience_cpu"] = ratio(te.vals["audience_cpu_cores"]-e2e.vals["audience_cpu_cores"], e2e.vals["audience_cpu_cores"])
		var ps, ts []float64
		for _, r := range plain {
			ps = append(ps, r.setup.Seconds())
		}
		for _, r := range traced {
			ts = append(ts, r.setup.Seconds())
		}
		o.vals["trace.overhead_setup"] = ratio(median(ts)-median(ps), median(ps))
		var series [][]statusSample
		for _, r := range traced {
			series = append(series, r.statusSeries)
		}
		o.detail["status_series"] = series
	}
	return o, nil
}

// roundOutcomes is each round's viewer outcome and repair work, kept in
// the run record so a degraded round can be told apart: a cohort-wide
// late chunk degrades a whole cohort, a per-viewer loss one viewer.
func roundOutcomes(rounds []*liveRound) []map[string]any {
	out := make([]map[string]any, 0, len(rounds))
	for _, r := range rounds {
		res := r.res
		out = append(out, map[string]any{
			"traced": r.traced, "degraded": res.Degraded, "cohorts": res.Cohorts,
			"late_chunks": res.LateChunks, "lost_chunks": res.LostChunks,
			"stripe_defeats": res.StripeDefeats, "nacks_sent": res.NacksSent,
			"multicast_repairs": res.MulticastRepairs, "repair_requests": res.RepairRequests,
			"busy_replies": res.BusyReplies, "recv_dropped": res.RecvDropped,
			"drift_events": r.st1.PacerDriftEvents - r.st0.PacerDriftEvents,
			"window_s":     r.window.Seconds(),
		})
	}
	return out
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// liveTotals sums the viewer outcomes of a set of rounds.
type liveTotals struct {
	viewers, degraded int64
	badChunks, owed   int64
	waits             map[int64]int64 // milli-unit bins
	waitN             int64
	window, srvCPU    float64
	srvSys, audCPU    float64
	audSys            float64
	srvHWM            []float64
	// Per-round rates; the end-to-end figures are their medians, so one
	// round disturbed by a neighbour on the host does not move a run.
	srvCores, audCores, viewerRate []float64
	clientSessions                 int64
	clientRepairRequests           int64
	clientDup                      int64
	peakBufferRatio                float64
}

// chunksPerVideo is how many data chunks one viewer is owed.
func (b *bench) chunksPerVideo() int64 {
	sch, err := b.sp.scheme()
	if err != nil {
		return 0
	}
	return sch.TotalUnits() * int64(b.sp.bytesPerUnit) / chunkBytes
}

// bufferBound is the paper's client buffer bound in the live demo's
// units: (W-1)·BytesPerUnit plus one chunk of arrival granularity.
func (b *bench) bufferBound() float64 {
	sch, err := b.sp.scheme()
	if err != nil {
		return 0
	}
	return float64((sch.EffectiveWidth()-1)*int64(b.sp.bytesPerUnit) + chunkBytes)
}

func (b *bench) totals(rounds []*liveRound) liveTotals {
	t := liveTotals{waits: map[int64]int64{}}
	owedPer := b.chunksPerVideo()
	bound := b.bufferBound()
	for _, r := range rounds {
		res := r.res
		t.viewers += int64(res.Viewers)
		t.degraded += int64(res.Degraded)
		t.badChunks += res.LostChunks + res.LateChunks
		t.owed += int64(res.Viewers) * owedPer
		for _, wb := range res.WaitHist {
			t.waits[wb.MilliUnits] += wb.Count
			t.waitN += wb.Count
		}
		for _, c := range r.clients {
			t.viewers++
			t.clientSessions++
			t.owed += owedPer
			if c.err != nil || c.stats == nil {
				t.degraded++
				continue
			}
			s := c.stats
			if s.LostChunks+s.LateChunks > 0 {
				t.degraded++
			}
			t.badChunks += s.LostChunks + s.LateChunks
			t.waits[int64(s.WaitUnits*1000)]++
			t.waitN++
			t.clientRepairRequests += s.RepairRequests
			t.clientDup += s.DuplicateChunks
			t.peakBufferRatio = math.Max(t.peakBufferRatio, ratio(float64(s.MaxBufferBytes), bound))
		}
		w := r.window.Seconds()
		t.window += w
		t.srvCPU += r.srv1.cpu() - r.srv0.cpu()
		t.srvSys += r.srv1.SysS - r.srv0.SysS
		t.audCPU += r.aud1.cpu() - r.aud0.cpu()
		t.audSys += r.aud1.SysS - r.aud0.SysS
		t.srvCores = append(t.srvCores, ratio(r.srv1.cpu()-r.srv0.cpu(), w))
		t.audCores = append(t.audCores, ratio(r.aud1.cpu()-r.aud0.cpu(), w))
		t.viewerRate = append(t.viewerRate, ratio(float64(res.Viewers+len(r.clients)), w))
		t.srvHWM = append(t.srvHWM, float64(r.srv1.HWMKiB)/1024)
	}
	return t
}

// waitQuantile returns the q-quantile of the merged wait histogram in D1
// units, and whether at least ten samples lie beyond it.
func (t liveTotals) waitQuantile(q float64) (float64, bool) {
	if t.waitN == 0 {
		return 0, false
	}
	hist := make([]viewer.WaitBucket, 0, len(t.waits))
	for mu, n := range t.waits {
		hist = append(hist, viewer.WaitBucket{MilliUnits: mu, Count: n})
	}
	sort.Slice(hist, func(i, j int) bool { return hist[i].MilliUnits < hist[j].MilliUnits })
	v := viewer.WaitQuantile(hist, t.waitN, q)
	var beyond int64
	for _, wb := range hist {
		if float64(wb.MilliUnits+1)/1000 > v {
			beyond += wb.Count
		}
	}
	return v, beyond >= 10
}

type e2eResult struct {
	vals              map[string]float64
	attempted, failed int64
	waitSamples       int64
	rates             []float64 // per-round throughput (sim_sweep)
	audRSS            []float64 // per-round replay-child peak RSS (sim_sweep)
}

// liveE2E computes the end-to-end metrics over rounds; setups are the
// run's set-up samples, or nil to use the rounds' own set-ups.
func (b *bench) liveE2E(rounds []*liveRound, setups []float64) e2eResult {
	t := b.totals(rounds)
	v := map[string]float64{}
	if setups == nil {
		for _, r := range rounds {
			setups = append(setups, r.setup.Seconds())
		}
	}
	v["setup_s"] = median(setups)
	if p, ok := t.waitQuantile(0.5); ok {
		v["start_wait_p50_units"] = p
	}
	if p, ok := t.waitQuantile(0.99); ok {
		v["start_wait_p99_units"] = p
	}
	v["intact_viewer_share"] = 1 - ratio(float64(t.degraded), float64(t.viewers))
	v["intact_chunk_share"] = 1 - ratio(float64(t.badChunks), float64(t.owed))
	v["server_cpu_cores"] = median(t.srvCores)
	v["audience_cpu_cores"] = median(t.audCores)
	v["server_rss_mib"] = median(t.srvHWM)
	v["audience_rss_mib"] = float64(peakRSSKiB()) / 1024
	v["viewers_per_s"] = median(t.viewerRate)
	return e2eResult{vals: v, attempted: t.viewers, failed: t.degraded, waitSamples: t.waitN}
}

// liveLayers computes the per-layer metrics over the traced rounds, and
// names those that could not be measured on this host. Counts are
// per-round means, so runs with different round counts compare.
func (b *bench) liveLayers(rounds []*liveRound) (map[string]float64, []string) {
	v := map[string]float64{}
	t := b.totals(rounds)
	n := float64(len(rounds))
	var (
		wakeups, sent, sentBytes, syscalls, drift         int64
		hits, misses, resident                            int64
		superframes, segments, sendFail                   int64
		rcvbuf, sndbuf                                    int64
		udpOK                                             = true
		nacksServed, nackResends, repairsServed, storms   int64
		busy, repairDgrams, parityBytes, dropped, burstDr int64
		sessionsPeak                                      int64
		batched, readSys, gro, ringDrops, readErr         int64
		cohorts, cohortPeak, slots                        int64
		fecHeals, defeats, nacks, nackSup, mcRepairs      int64
		unicast, repaired, lost, muxBusy, reconnects      int64
		stalls                                            int
		gcP99, schedP99, startMS, statusMS, handshakeMS   []float64
		muxRunS, watchS, lateness                         []float64
		statusN                                           int
	)
	for _, r := range rounds {
		s0, s1 := r.st0, r.st1
		wakeups += s1.EgressWakeups - s0.EgressWakeups
		sent += s1.DatagramsSent - s0.DatagramsSent
		sentBytes += s1.DatagramBytes - s0.DatagramBytes
		syscalls += s1.EgressSyscalls - s0.EgressSyscalls
		drift += s1.PacerDriftEvents - s0.PacerDriftEvents
		hits += s1.FrameCache.Hits - s0.FrameCache.Hits
		misses += s1.FrameCache.Misses - s0.FrameCache.Misses
		if s1.FrameCache.Bytes > resident {
			resident = s1.FrameCache.Bytes
		}
		superframes += s1.Superframes - s0.Superframes
		segments += s1.GSOSegments - s0.GSOSegments
		sendFail += s1.SendFailures - s0.SendFailures
		if r.udp0.ok && r.udp1.ok {
			rcvbuf += r.udp1.RcvbufErrors - r.udp0.RcvbufErrors
			sndbuf += r.udp1.SndbufErrors - r.udp0.SndbufErrors
		} else {
			udpOK = false
		}
		nacksServed += s1.NacksServed - s0.NacksServed
		nackResends += s1.NackResends - s0.NackResends
		repairsServed += s1.RepairsServed - s0.RepairsServed
		storms += s1.StormResends - s0.StormResends
		busy += s1.BusyReplies - s0.BusyReplies
		repairDgrams += s1.RepairDatagrams - s0.RepairDatagrams
		parityBytes += s1.ParityBytes - s0.ParityBytes
		if s1.FaultsInjected != nil {
			f0 := s0.FaultsInjected
			dropped += s1.FaultsInjected.Dropped
			burstDr += s1.FaultsInjected.BurstDropped
			if f0 != nil {
				dropped -= f0.Dropped
				burstDr -= f0.BurstDropped
			}
		}
		if s1.ControlSessionsPeak > sessionsPeak {
			sessionsPeak = s1.ControlSessionsPeak
		}
		res := r.res
		batched += res.BatchedReads
		readSys += res.ReadSyscalls
		gro += res.GroSegments
		ringDrops += res.RecvDropped
		readErr += res.ReadErrors
		cohorts += int64(res.Cohorts)
		if res.PeakCohorts > cohortPeak {
			cohortPeak = res.PeakCohorts
		}
		slots += res.Datagrams
		fecHeals += res.FecHeals
		defeats += res.StripeDefeats
		nacks += res.NacksSent
		nackSup += res.NacksSuppressed
		mcRepairs += res.MulticastRepairs
		unicast += res.RepairRequests
		repaired += res.RepairedChunks
		lost += res.LostChunks
		muxBusy += res.BusyReplies
		reconnects += res.Reconnects
		for _, c := range r.clients {
			watchS = append(watchS, c.dur.Seconds())
			if c.stats == nil {
				continue
			}
			s := c.stats
			fecHeals += s.FecHeals
			defeats += s.StripeDefeats
			nacks += s.NacksSent
			nackSup += s.NacksSuppressed
			mcRepairs += s.MulticastRepairs
			repaired += s.RepairedChunks
			lost += s.LostChunks
			muxBusy += s.BusyReplies
			reconnects += s.Reconnects
		}
		stalls += r.stalls
		gcP99 = append(gcP99, histDeltaQuantile(r.gc0, r.gc1, 0.99))
		schedP99 = append(schedP99, histDeltaQuantile(r.sched0, r.sched1, 0.99))
		startMS = append(startMS, r.serverStartMS)
		statusMS = append(statusMS, ms(r.statusReady))
		handshakeMS = append(handshakeMS, ms(r.handshake))
		muxRunS = append(muxRunS, r.muxRun.Seconds())
		lateness = append(lateness, r.lateness...)
		statusN += len(r.statusSeries)
	}
	perRound := func(x int64) float64 { return float64(x) / n }
	v["wheel.wakeups_per_s"] = ratio(float64(wakeups), t.window)
	v["wheel.dgrams_per_wakeup"] = ratio(float64(sent), float64(wakeups))
	v["wheel.drift_events"] = perRound(drift)
	v["framecache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["framecache.resident_mib"] = float64(resident) / mib
	v["egress.dgrams_per_s"] = ratio(float64(sent), t.window)
	v["egress.dgrams_per_syscall"] = ratio(float64(sent), float64(syscalls))
	v["server.sys_cpu_share"] = ratio(t.srvSys, t.srvCPU)
	v["egress.superframes"] = perRound(superframes)
	v["egress.segments_per_superframe"] = ratio(float64(segments), float64(superframes))
	v["egress.send_failures"] = perRound(sendFail)
	var unavailable []string
	if udpOK {
		v["kernel.udp_rcvbuf_errors"] = perRound(rcvbuf)
		v["kernel.udp_sndbuf_errors"] = perRound(sndbuf)
	} else {
		unavailable = []string{"kernel.udp_rcvbuf_errors", "kernel.udp_sndbuf_errors"}
	}
	v["ingress.dgrams_per_read_syscall"] = ratio(float64(batched), float64(readSys))
	v["ingress.gro_segments"] = perRound(gro)
	v["ingress.ring_drops"] = perRound(ringDrops)
	v["ingress.read_errors"] = perRound(readErr)
	v["cohort.count"] = perRound(cohorts)
	v["cohort.peak"] = float64(cohortPeak)
	v["cohort.slot_deliveries_per_s"] = ratio(float64(slots), t.window)
	v["audience.sys_cpu_share"] = ratio(t.audSys, t.audCPU)
	v["audience.gc_pause_p99_ms"] = median(gcP99)
	v["audience.sched_latency_p99_ms"] = median(schedP99)
	v["fec.heals"] = perRound(fecHeals)
	v["fec.stripe_defeats"] = perRound(defeats)
	v["fec.heal_ratio"] = ratio(float64(fecHeals), float64(fecHeals+mcRepairs+repaired+lost))
	v["nack.sent"] = perRound(nacks)
	v["nack.suppressed"] = perRound(nackSup)
	v["nack.heals_per_nack"] = ratio(float64(mcRepairs), float64(nacks))
	v["nack.spurious"] = 0
	if b.sp.faultPlan(b.seed, 0) == nil {
		v["nack.spurious"] = perRound(nacks)
	}
	v["repair.unicast_requests"] = perRound(unicast + t.clientRepairRequests)
	v["repair.busy_replies"] = perRound(muxBusy)
	v["repair.reconnects"] = perRound(reconnects)
	v["control.nacks_served"] = perRound(nacksServed)
	v["control.nack_resends"] = perRound(nackResends)
	v["control.repairs_served"] = perRound(repairsServed)
	v["control.storm_resends"] = perRound(storms)
	v["control.busy_replies"] = perRound(busy)
	v["control.sessions_peak"] = float64(sessionsPeak)
	v["control.repair_dgram_share"] = ratio(float64(repairDgrams), float64(sent))
	v["parity.overhead_ratio"] = ratio(float64(parityBytes), float64(sentBytes))
	v["faults.dropped"] = perRound(dropped)
	v["faults.burst_dropped"] = perRound(burstDr)
	v["client.sessions"] = perRound(t.clientSessions)
	v["client.repair_requests"] = perRound(t.clientRepairRequests)
	v["client.duplicate_chunks"] = perRound(t.clientDup)
	v["client.peak_buffer_ratio"] = t.peakBufferRatio
	v["degraded_share"] = ratio(float64(t.degraded), float64(t.viewers))
	v["lost_chunk_share"] = ratio(float64(t.badChunks), float64(t.owed))
	v["start_wait.samples"] = float64(t.waitN)
	v["stall.count"] = float64(stalls) / n
	v["span.server_start_ms"] = median(startMS)
	v["span.status_ready_ms"] = median(statusMS)
	v["span.mux_handshake_ms"] = median(handshakeMS)
	v["span.mux_run_s"] = median(muxRunS)
	v["span.client_watch_s"] = median(watchS)
	sort.Float64s(lateness)
	v["probe.delivery_lateness_p50_ms"] = quantileSorted(lateness, 0.5)
	v["probe.delivery_lateness_p99_ms"] = quantileSorted(lateness, 0.99)
	v["probe.samples"] = float64(len(lateness))
	v["status.samples"] = float64(statusN)
	return v, unavailable
}

// checkLive holds a live round's correctness checks.
func (b *bench) checkLive(round int, r *liveRound) {
	sp := b.sp
	res := r.res
	if r.muxErr != nil {
		b.fail("round %d: mux run: %v", round, r.muxErr)
	}
	if res.ByteErrors != 0 {
		b.fail("round %d: %d content-verification errors in the mux", round, res.ByteErrors)
	}
	var hist int64
	maxMilli := int64(-1)
	for _, wb := range res.WaitHist {
		hist += wb.Count
		if wb.MilliUnits > maxMilli {
			maxMilli = wb.MilliUnits
		}
	}
	if res.Viewers != sp.viewers || hist != int64(sp.viewers) {
		b.fail("round %d: %d viewers admitted, %d reported, %d waits recorded", round, sp.viewers, res.Viewers, hist)
	}
	limit := 1 + joinLead
	if float64(maxMilli) > limit*1000 {
		b.fail("round %d: a mux viewer waited %.3f units, bound %.3f", round, float64(maxMilli)/1000, limit)
	}
	bound := b.bufferBound()
	for i, c := range r.clients {
		if c.stats == nil {
			continue // an errored session counts as degraded, not as a wrong result
		}
		s := c.stats
		if s.ByteErrors != 0 {
			b.fail("round %d client %d: %d content-verification errors", round, i, s.ByteErrors)
		}
		if s.WaitUnits > limit+1e-3 {
			b.fail("round %d client %d: waited %.3f units, bound %.3f", round, i, s.WaitUnits, limit)
		}
		if float64(s.MaxBufferBytes) > bound {
			b.fail("round %d client %d: peak buffer %d bytes over the bound %.0f", round, i, s.MaxBufferBytes, bound)
		}
	}
}
