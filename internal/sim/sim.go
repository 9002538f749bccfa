// Package sim simulates a client of every broadcasting scheme in this
// repository. Where the analytic packages (core, pyramid, ppb, staggered)
// evaluate the paper's closed forms, this package actually plays the
// protocols out: each scheme's client turns the server's periodic
// broadcasts into the constant-rate download flows its loaders receive and
// the playback flow its player drains, and a replay sweeps the flows' start
// and end edges in virtual-time order — so access latency, buffer
// high-water marks and stream concurrency are *measured*, and
// jitter-freeness is checked rather than assumed. Every edge is known
// before the replay starts, so the sweep is a loop over the sorted edges
// and needs no event queue. The tests cross-validate the measurements
// against the closed forms, which is this reproduction's substitute for
// the authors' testbed.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"skyscraper/internal/metrics"
)

// ClientResult reports one simulated client's reception of one video.
type ClientResult struct {
	// ArrivalMin and PlayStartMin are in virtual minutes; WaitMin is
	// their difference (the service latency actually experienced).
	ArrivalMin, PlayStartMin, WaitMin float64
	// MaxBufferMbit is the client buffer high-water mark.
	MaxBufferMbit float64
	// AvgBufferMbit is the time-weighted mean occupancy between playback
	// start and end.
	AvgBufferMbit float64
	// MaxStreams is the peak number of simultaneously tuned channels.
	MaxStreams int
	// MaxIOMbps is the peak client storage-I/O bandwidth: the display
	// rate while playing plus the rates of all concurrently *buffering*
	// downloads (a download that streams straight through to the player
	// — identical interval and rate — touches no disk). This is the
	// measured counterpart of the paper's Table 1 disk-bandwidth column.
	MaxIOMbps float64
	// DownloadedMbit totals all received data; it must equal the video
	// size exactly (every byte received once).
	DownloadedMbit float64
	// PlaybackEndMin is when the player consumed the final byte.
	PlaybackEndMin float64
}

// ClientSim simulates one client reception under some scheme.
type ClientSim interface {
	// Name identifies the scheme, matching its analytic Performer.
	Name() string
	// Client simulates a client arriving at arrivalMin (virtual minutes)
	// requesting the given video, returning measurements or an error if
	// the protocol missed a deadline (jitter).
	Client(arrivalMin float64, video int) (ClientResult, error)
}

// flow is a constant-rate transfer of one segment's data over an interval.
type flow struct {
	segment  int // 1-based segment index
	startMin float64
	endMin   float64
	rateMbps float64
}

func (f flow) mbit() float64 { return (f.endMin - f.startMin) * 60 * f.rateMbps }

// cumulative returns the Mbit transferred by time t.
func (f flow) cumulative(t float64) float64 {
	if t <= f.startMin {
		return 0
	}
	if t >= f.endMin {
		return f.mbit()
	}
	return (t - f.startMin) * 60 * f.rateMbps
}

// workspace holds one client's flows and the scratch its replay sorts them
// in. Workspaces are pooled, so a sweep reuses the same few buffers for
// every client instead of allocating them per client.
type workspace struct {
	downloads, playbacks []flow
	bursts               []burst // downloads grouped by (segment, start)
	edges                []edge
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// getWorkspace returns a pooled workspace with empty flow lists; release
// it with workspaces.Put once the replay has returned.
func getWorkspace() *workspace {
	w := workspaces.Get().(*workspace)
	w.downloads, w.playbacks = w.downloads[:0], w.playbacks[:0]
	return w
}

// burst is a download flow in the per-segment grouping: start is the index
// of its start edge in the replay (the end edge follows it), and played
// marks a segment whose pass-through test has been made.
type burst struct {
	flow
	start  int
	played bool
}

// edge is a flow's start or end in the replay.
type edge struct {
	t      float64
	dRate  float64 // buffer fill-rate delta (downloads add, playback subtracts)
	stream int     // +1 tune, -1 untune, 0 for playback edges
	play   int     // +1 playback start, -1 playback end
	wRate  float64 // disk write-rate delta
}

// runFlows replays a client's download and playback flows (w.downloads and
// w.playbacks), verifying per-segment causality (no byte is played before
// it arrives) and measuring buffer occupancy and stream concurrency. Every
// played segment must be covered by one or more non-overlapping download
// bursts (a pausing client, like PPB's, receives a segment in several
// bursts from phase-shifted replicas) delivering exactly the played volume,
// and the buffer must drain to zero when the last flow ends.
//
// The replay is a sweep: the flows' start and end edges are stably sorted
// by time and integrated in that order, downloads before playbacks and
// each flow's edges in list order at equal times, so the floating-point
// operations, and with them every ClientResult bit, are fixed by the flow
// lists alone.
func (w *workspace) runFlows(arrivalMin float64) (ClientResult, error) {
	downloads, playbacks := w.downloads, w.playbacks
	if len(playbacks) == 0 {
		return ClientResult{}, fmt.Errorf("sim: no playback flows")
	}
	for _, f := range downloads {
		if f.endMin < f.startMin || f.rateMbps <= 0 {
			return ClientResult{}, fmt.Errorf("sim: malformed download flow %+v", f)
		}
	}
	// Every download writes to (and is later read from) the buffer unless
	// the pass-through test below clears its write rate.
	edges := w.edges[:0]
	bursts := w.bursts[:0]
	var total float64
	for _, f := range downloads {
		bursts = append(bursts, burst{flow: f, start: len(edges)})
		edges = append(edges,
			edge{t: f.startMin, dRate: +f.rateMbps, stream: +1, wRate: +f.rateMbps},
			edge{t: f.endMin, dRate: -f.rateMbps, stream: -1, wRate: -f.rateMbps})
		total += f.mbit()
	}
	for _, p := range playbacks {
		edges = append(edges,
			edge{t: p.startMin, dRate: -p.rateMbps, play: +1},
			edge{t: p.endMin, dRate: +p.rateMbps, play: -1})
	}
	w.edges, w.bursts = edges, bursts
	slices.SortStableFunc(bursts, func(a, b burst) int {
		if c := cmp.Compare(a.segment, b.segment); c != 0 {
			return c
		}
		return compareTime(a.startMin, b.startMin)
	})

	// Tolerance for data-volume comparisons: 1e-4 Mbit is about 12 bytes,
	// far above accumulated float64 noise and far below any real jitter.
	const tol = 1e-4
	playStart, playEnd := playbacks[0].startMin, playbacks[0].endMin
	for _, p := range playbacks {
		lo, ok := slices.BinarySearchFunc(bursts, p.segment, func(b burst, seg int) int { return cmp.Compare(b.segment, seg) })
		if !ok {
			return ClientResult{}, fmt.Errorf("sim: segment %d played but never downloaded", p.segment)
		}
		hi := lo + 1
		for hi < len(bursts) && bursts[hi].segment == p.segment {
			hi++
		}
		seg := bursts[lo:hi]
		var got float64
		for i, b := range seg {
			got += b.mbit()
			if i > 0 && b.startMin < seg[i-1].endMin-1e-12 {
				return ClientResult{}, fmt.Errorf("sim: segment %d bursts overlap at t=%.6f", p.segment, b.startMin)
			}
		}
		if diff := got - p.mbit(); diff > tol || diff < -tol {
			return ClientResult{}, fmt.Errorf("sim: segment %d downloads %.6f Mbit but plays %.6f",
				p.segment, got, p.mbit())
		}
		// Causality is a piecewise-linear comparison; extremes occur at
		// breakpoints of either curve: the playback's ends, then each
		// burst's.
		if err := checkCausality(p, seg, p.startMin, tol); err != nil {
			return ClientResult{}, err
		}
		if err := checkCausality(p, seg, p.endMin, tol); err != nil {
			return ClientResult{}, err
		}
		for _, b := range seg {
			if err := checkCausality(p, seg, b.startMin, tol); err != nil {
				return ClientResult{}, err
			}
			if err := checkCausality(p, seg, b.endMin, tol); err != nil {
				return ClientResult{}, err
			}
		}
		// A download that coincides exactly with its segment's first
		// playback streams through to the player and touches no disk.
		if !seg[0].played {
			for i := range seg {
				b := &seg[i]
				b.played = true
				if b.startMin == p.startMin && b.endMin == p.endMin && b.rateMbps == p.rateMbps {
					edges[b.start].wRate, edges[b.start+1].wRate = 0, 0
				}
			}
		}
		if p.startMin < playStart {
			playStart = p.startMin
		}
		if p.endMin > playEnd {
			playEnd = p.endMin
		}
	}

	// Sweep the edges in time order, integrating the buffer gauge, stream
	// concurrency and storage-I/O rate.
	slices.SortStableFunc(edges, func(a, b edge) int { return compareTime(a.t, b.t) })
	var (
		buf        metrics.Gauge
		streams    int
		maxStreams int
		playing    int     // active playback flows
		writeRate  float64 // Mbit/s being written to the buffer
		maxIO      float64
		rate       float64 // net fill rate Mbit/s
	)
	playRate := playbacks[0].rateMbps
	prev := edges[0].t
	for _, e := range edges {
		buf.Add(e.t, rate*60*(e.t-prev))
		prev = e.t
		rate += e.dRate
		streams += e.stream
		if streams > maxStreams {
			maxStreams = streams
		}
		playing += e.play
		writeRate += e.wRate
		io := writeRate
		if playing > 0 {
			io += playRate
		}
		if io > maxIO {
			maxIO = io
		}
	}
	if lvl := buf.Level(); lvl > tol || lvl < -tol {
		return ClientResult{}, fmt.Errorf("sim: buffer did not drain: %.6f Mbit left", lvl)
	}

	return ClientResult{
		ArrivalMin:     arrivalMin,
		PlayStartMin:   playStart,
		WaitMin:        playStart - arrivalMin,
		MaxBufferMbit:  buf.High(),
		AvgBufferMbit:  buf.TimeAverage(playEnd),
		MaxStreams:     maxStreams,
		MaxIOMbps:      maxIO,
		DownloadedMbit: total,
		PlaybackEndMin: playEnd,
	}, nil
}

// compareTime orders instants for the replay's stable sorts: earlier
// first, and equal (or unordered) instants keep their list order.
func compareTime(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return +1
	}
	return 0
}

// checkCausality fails if playback p has consumed more of its segment by
// time t than the segment's bursts have delivered.
func checkCausality(p flow, bursts []burst, t, tol float64) error {
	var cum float64
	for _, b := range bursts {
		cum += b.cumulative(t)
	}
	if short := p.cumulative(t) - cum; short > tol {
		return fmt.Errorf("sim: jitter on segment %d: player is %.6f Mbit ahead at t=%.6f", p.segment, short, t)
	}
	return nil
}
