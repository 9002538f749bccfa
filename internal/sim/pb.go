package sim

import (
	"fmt"
	"math"

	"skyscraper/internal/pyramid"
)

// PB simulates a Pyramid Broadcasting client. Channel i (one of K, at B/K
// Mbit/s) cycles through the i-th segments of all M videos sequentially;
// the client downloads its video's first segment at the first occurrence,
// plays it back concurrently, and tunes for each subsequent segment at the
// earliest broadcast after beginning to play back the current one
// (Section 2).
type PB struct {
	scheme *pyramid.Scheme
}

// NewPB wraps a PB scheme for simulation.
func NewPB(scheme *pyramid.Scheme) *PB { return &PB{scheme: scheme} }

// Name implements ClientSim.
func (s *PB) Name() string { return s.scheme.Name() }

// Scheme returns the underlying analytic scheme.
func (s *PB) Scheme() *pyramid.Scheme { return s.scheme }

// Client implements ClientSim.
func (s *PB) Client(arrivalMin float64, video int) (ClientResult, error) {
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
	var playAt, prevPlayStart float64
	for i := 1; i <= k; i++ {
		// Channel i broadcasts S_i of video v during
		// [cycle*n + v*T_i, ... + T_i), where T_i is the broadcast
		// duration of one segment at the channel rate.
		dur := s.scheme.BroadcastMinutes(i)
		cycle := float64(cfg.Videos) * dur
		offset := float64(video) * dur
		// "It downloads the next fragment at the earliest possible time
		// after beginning to play back the current fragment": tune for
		// segment i once segment i-1's playback has begun.
		ready := arrivalMin
		if i > 1 {
			ready = prevPlayStart
		}
		start := firstAtOrAfter(ready, cycle, offset)
		if i == 1 {
			playAt = start // playback begins with the first download
		}
		playDur := s.scheme.FragmentMinutes(i)
		w.downloads = append(w.downloads, flow{segment: i, startMin: start, endMin: start + dur, rateMbps: s.scheme.ChannelMbps()})
		w.playbacks = append(w.playbacks, flow{segment: i, startMin: playAt, endMin: playAt + playDur, rateMbps: cfg.RateMbps})
		prevPlayStart = playAt
		playAt += playDur
	}
	res, err := w.runFlows(arrivalMin)
	if err != nil {
		return ClientResult{}, fmt.Errorf("sim: %s: %w", s.Name(), err)
	}
	return res, nil
}

// firstAtOrAfter returns the earliest element of {offset + n*period : n>=0}
// that is >= t; t at or before offset yields offset itself.
func firstAtOrAfter(t, period, offset float64) float64 {
	if t <= offset {
		return offset
	}
	n := math.Ceil((t - offset) / period)
	at := offset + n*period
	// Guard against float rounding placing us one period late when t
	// falls exactly on the grid.
	if prev := at - period; prev >= t {
		return prev
	}
	return at
}
