package sim

import (
	"fmt"
	"math"

	"skyscraper/internal/ppb"
)

// PPB simulates a Permutation-Based Pyramid Broadcasting client. Each
// segment of each video is carried by P subchannels of B/(K*P*M) Mbit/s,
// each broadcasting the segment back-to-back, phase-shifted by 1/P of the
// broadcast period — so broadcast starts form a grid of pitch period/P, and
// byte x of the segment is in flight at every grid time plus x/rate.
//
// The client implements the paper's full PPB behavior, including the
// buffer-reduction mechanism SB criticizes for its synchronization cost:
// "PPB occasionally pauses the incoming stream to allow the playback to
// catch up. This is done by allowing a client to discontinue the current
// stream and tune to another subchannel, which broadcasts the same
// fragment, at a later time to collect the remaining data." Concretely,
// each segment is received as a sequence of bursts: the client tunes as
// late as the playback deadline permits, downloads until its lead over the
// player reaches one replica offset worth of data (60*b*period/P Mbit — the
// minimum lead that makes a pause safe), pauses, and resumes mid-broadcast
// on a later replica. This is what makes the Table 1 storage bound
// attainable.
type PPB struct {
	scheme *ppb.Scheme
}

// NewPPB wraps a PPB scheme for simulation.
func NewPPB(scheme *ppb.Scheme) *PPB { return &PPB{scheme: scheme} }

// Name implements ClientSim.
func (s *PPB) Name() string { return s.scheme.Name() }

// Scheme returns the underlying analytic scheme.
func (s *PPB) Scheme() *ppb.Scheme { return s.scheme }

// Client implements ClientSim.
func (s *PPB) Client(arrivalMin float64, video int) (ClientResult, error) {
	cfg := s.scheme.Config()
	if video < 0 || video >= cfg.Videos {
		return ClientResult{}, fmt.Errorf("sim: video %d outside broadcast set 0..%d", video, cfg.Videos-1)
	}
	if arrivalMin < 0 {
		return ClientResult{}, fmt.Errorf("sim: negative arrival %v", arrivalMin)
	}
	k := s.scheme.K()
	w := getWorkspace()
	defer workspaces.Put(w)
	// Playback begins at the earliest replica of the first segment.
	playAt := firstAtOrAfter(arrivalMin, s.scheme.PhaseOffsetMinutes(1), 0)
	for i := 1; i <= k; i++ {
		playDur := s.scheme.FragmentMinutes(i)
		var err error
		if w.downloads, err = s.segmentBursts(w.downloads, i, playAt); err != nil {
			return ClientResult{}, fmt.Errorf("sim: %s: %w", s.Name(), err)
		}
		w.playbacks = append(w.playbacks, flow{segment: i, startMin: playAt, endMin: playAt + playDur, rateMbps: cfg.RateMbps})
		playAt += playDur
	}
	res, err := w.runFlows(arrivalMin)
	if err != nil {
		return ClientResult{}, fmt.Errorf("sim: %s: %w", s.Name(), err)
	}
	return res, nil
}

// segmentBursts appends to dst the pause/resume download schedule for
// segment i whose playback starts at playStart minutes.
func (s *PPB) segmentBursts(dst []flow, i int, playStart float64) ([]flow, error) {
	var (
		b     = s.scheme.Config().RateMbps
		r     = s.scheme.SubchannelMbps()
		step  = s.scheme.PhaseOffsetMinutes(i)     // replica phase pitch
		total = s.scheme.FragmentMbits(i)          // segment content
		theta = 60 * b * step                      // minimum lead that makes a pause safe
		x     = 0.0                                // Mbit received so far
		prev  = math.Inf(-1)                       // end of previous burst
		limit = 16 + 4*int(math.Ceil(total/theta)) // iteration guard
	)
	played := func(t float64) float64 {
		v := 60 * b * (t - playStart)
		if v < 0 {
			return 0
		}
		if v > total {
			return total
		}
		return v
	}
	for n := 0; x < total-1e-9; n++ {
		if n >= limit {
			return dst, fmt.Errorf("ppb: segment %d burst schedule did not converge after %d bursts", i, n)
		}
		// Byte x is in flight at every grid time k*step plus x/(60r);
		// resume as late as the playback deadline of byte x permits.
		deadline := playStart + x/(60*b)
		base := x / (60 * r)
		// The epsilon absorbs float rounding when the deadline falls
		// exactly on the replica grid; overshooting the deadline by
		// step*1e-9 minutes is far below the data tolerance.
		kk := math.Floor((deadline-base)/step + 1e-9)
		start := base + kk*step
		if start < prev-1e-9 {
			return dst, fmt.Errorf("ppb: segment %d: no replica carries byte %.3f Mbit between %.6f and its deadline %.6f",
				i, x, prev, deadline)
		}
		if start < prev {
			start = prev
		}
		// Download until done, or until the lead over the player
		// reaches theta (then a pause of up to one replica offset is
		// safe).
		fullEnd := start + (total-x)/(60*r)
		pauseAt := math.Inf(1)
		if lead := x + 0 - played(start); lead < theta {
			// Before playback starts the lead grows at 60r; after,
			// at 60(r-b).
			if start < playStart {
				t := start + (theta-x)/(60*r)
				if t <= playStart {
					pauseAt = t
				} else {
					leadAtPlay := x + 60*r*(playStart-start)
					pauseAt = playStart + (theta-leadAtPlay)/(60*(r-b))
				}
			} else {
				pauseAt = start + (theta-lead)/(60*(r-b))
			}
		}
		end := math.Min(fullEnd, pauseAt)
		if end <= start+1e-12 {
			// Degenerate alignment: the lead is already theta at the
			// resume point; the next grid slot still meets the
			// deadline, so skip forward one replica.
			prev = start + step
			continue
		}
		dst = append(dst, flow{segment: i, startMin: start, endMin: end, rateMbps: r})
		x += 60 * r * (end - start)
		prev = end
	}
	return dst, nil
}
