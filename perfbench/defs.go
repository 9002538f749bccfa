package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json is generated
// from these tables (-print-benchmark-json), so the benchmark and its
// declaration cannot drift apart.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(v float64) *float64 { return &v }

// endToEnd are the metrics a viewer or operator sees, reported by every
// untraced run of every workload; NOTES.md maps the issue's names onto
// them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"start_wait_p50_units", "D1", "lower", bound(0.05)},
	{"start_wait_p99_units", "D1", "lower", bound(0.05)},
	{"intact_viewer_share", "ratio", "higher", bound(0.25)},
	{"intact_chunk_share", "ratio", "higher", bound(0.05)},
	{"server_cpu_cores", "cores", "lower", bound(0.25)},
	{"audience_cpu_cores", "cores", "lower", bound(0.25)},
	{"server_rss_mib", "MiB", "lower", bound(0.2)},
	{"audience_rss_mib", "MiB", "lower", bound(0.25)},
	{"viewers_per_s", "1/s", "higher", bound(0.2)},
}

// perLayer are the traced run's layer metrics, named after the repo's
// modules. A metric of a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	// server: timer wheel and frame cache.
	{"wheel.wakeups_per_s", "1/s", "lower", nil},
	{"wheel.dgrams_per_wakeup", "count", "higher", nil},
	{"wheel.drift_events", "count", "lower", nil},
	{"framecache.hit_ratio", "ratio", "higher", nil},
	{"framecache.resident_mib", "MiB", "lower", nil},
	// mcast egress ladder.
	{"egress.dgrams_per_s", "1/s", "higher", nil},
	{"egress.dgrams_per_syscall", "count", "higher", nil},
	{"server.sys_cpu_share", "ratio", "lower", nil},
	{"egress.superframes", "count", "higher", nil},
	{"egress.segments_per_superframe", "count", "higher", nil},
	{"egress.send_failures", "count", "lower", nil},
	// kernel loopback UDP.
	{"kernel.udp_rcvbuf_errors", "count", "lower", nil},
	{"kernel.udp_sndbuf_errors", "count", "lower", nil},
	// mcast ingress ladder.
	{"ingress.dgrams_per_read_syscall", "count", "higher", nil},
	{"ingress.gro_segments", "count", "higher", nil},
	{"ingress.ring_drops", "count", "lower", nil},
	{"ingress.read_errors", "count", "lower", nil},
	// viewer cohort dispatch.
	{"cohort.count", "count", "lower", nil},
	{"cohort.peak", "count", "lower", nil},
	{"cohort.slot_deliveries_per_s", "1/s", "higher", nil},
	{"audience.sys_cpu_share", "ratio", "lower", nil},
	{"audience.gc_pause_p99_ms", "ms", "lower", nil},
	{"audience.sched_latency_p99_ms", "ms", "lower", nil},
	// viewer repair ladder.
	{"fec.heals", "count", "higher", nil},
	{"fec.stripe_defeats", "count", "lower", nil},
	{"fec.heal_ratio", "ratio", "higher", nil},
	{"nack.sent", "count", "lower", nil},
	{"nack.suppressed", "count", "higher", nil},
	{"nack.heals_per_nack", "count", "higher", nil},
	{"nack.spurious", "count", "lower", nil},
	{"repair.unicast_requests", "count", "lower", nil},
	{"repair.busy_replies", "count", "lower", nil},
	{"repair.reconnects", "count", "lower", nil},
	// server control plane.
	{"control.nacks_served", "count", "lower", nil},
	{"control.nack_resends", "count", "lower", nil},
	{"control.repairs_served", "count", "lower", nil},
	{"control.storm_resends", "count", "lower", nil},
	{"control.busy_replies", "count", "lower", nil},
	{"control.sessions_peak", "count", "lower", nil},
	{"control.repair_dgram_share", "ratio", "lower", nil},
	// wire parity stripe and the fault injector.
	{"parity.overhead_ratio", "ratio", "lower", nil},
	{"faults.dropped", "count", "lower", nil},
	{"faults.burst_dropped", "count", "lower", nil},
	// client (single-viewer stack).
	{"client.sessions", "count", "higher", nil},
	{"client.repair_requests", "count", "lower", nil},
	{"client.duplicate_chunks", "count", "lower", nil},
	{"client.peak_buffer_ratio", "ratio", "lower", nil},
	// sim, core and des.
	{"sim.sb_clients_per_s", "1/s", "higher", nil},
	{"sim.pb_clients_per_s", "1/s", "higher", nil},
	{"sim.ppb_clients_per_s", "1/s", "higher", nil},
	{"sim.staggered_clients_per_s", "1/s", "higher", nil},
	{"core.plan_ms", "ms", "lower", nil},
	// The issue's outcome metrics that are zero on a healthy run, so
	// they cannot carry an end-to-end bound.
	{"degraded_share", "ratio", "lower", nil},
	{"lost_chunk_share", "ratio", "lower", nil},
	{"sim_clients_per_s", "1/s", "higher", nil},
	{"start_wait.samples", "count", "higher", nil},
	{"stall.count", "count", "higher", nil},
	// Spans recorded around the public calls.
	{"span.server_start_ms", "ms", "lower", nil},
	{"span.status_ready_ms", "ms", "lower", nil},
	{"span.mux_handshake_ms", "ms", "lower", nil},
	{"span.mux_run_s", "s", "lower", nil},
	{"span.client_watch_s", "s", "lower", nil},
	{"span.sweep_sb_s", "s", "lower", nil},
	{"span.sweep_pb_a_s", "s", "lower", nil},
	{"span.sweep_pb_b_s", "s", "lower", nil},
	{"span.sweep_ppb_a_s", "s", "lower", nil},
	{"span.sweep_ppb_b_s", "s", "lower", nil},
	{"span.sweep_staggered_s", "s", "lower", nil},
	// The probe subscriber and the per-unit /status sampler.
	{"probe.delivery_lateness_p50_ms", "ms", "lower", nil},
	{"probe.delivery_lateness_p99_ms", "ms", "lower", nil},
	{"probe.samples", "count", "higher", nil},
	{"status.samples", "count", "higher", nil},
	// Tracing overhead: traced minus untraced rounds of the same run, as
	// a share of the untraced value.
	{"trace.overhead_server_cpu", "ratio", "lower", nil},
	{"trace.overhead_audience_cpu", "ratio", "lower", nil},
	{"trace.overhead_setup", "ratio", "lower", nil},
}

// workloadWhy is each workload's one-line reason, for BENCHMARK.json.
var workloadWhy = []struct{ name, why string }{
	{"dense_lossless", "20 videos x 10 channels at a 50 ms unit, 5k-viewer mux, no loss: wheel, frame cache, egress/ingress ladders and cohort dispatch do the work"},
	{"lossy_audience", "8 videos, 5k viewers, 2% iid + burst loss, XOR stripe G=4, finite repair budget: FEC, NACK ladder and unicast repair do the work"},
	{"stalled_server", "server SIGSTOPped 50 ms every 400 ms at 64 chunks/unit: wheel catch-up, GSO super-frames, GRO, and closed-loop client.Watch sessions"},
	{"sim_sweep", "population sweep of SB, PB, PPB and staggered via sim.Sweep at a fixed client count: des, sim, core, pyramid, ppb, staggered"},
}

// benchmarkJSON renders BENCHMARK.json.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloadWhy {
		if _, ok := workloads[w.name]; !ok {
			return nil, fmt.Errorf("workload %q has a reason but no spec", w.name)
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// runSeconds is BENCHMARK.json's run_seconds.
const runSeconds = 25

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the declared metrics from computed values, in declaration
// order, and reports any declared metric that was not computed.
func pick(defs []metricDef, vals map[string]float64) (map[string]metric, []string, []string) {
	out := map[string]metric{}
	var order, missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
		order = append(order, d.Name)
	}
	return out, order, missing
}

// unknown lists computed values no table declares (a programming slip).
func unknown(vals map[string]float64) []string {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
