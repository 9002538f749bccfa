package sim

import (
	"fmt"

	"skyscraper/internal/staggered"
)

// Staggered simulates a plain periodic-broadcast client: it waits for the
// next of N phase-shifted full-file streams of its video and plays it
// straight through, buffering nothing.
type Staggered struct {
	scheme *staggered.Scheme
}

// NewStaggered wraps a staggered scheme for simulation.
func NewStaggered(scheme *staggered.Scheme) *Staggered { return &Staggered{scheme: scheme} }

// Name implements ClientSim.
func (s *Staggered) Name() string { return s.scheme.Name() }

// Scheme returns the underlying analytic scheme.
func (s *Staggered) Scheme() *staggered.Scheme { return s.scheme }

// Client implements ClientSim.
func (s *Staggered) Client(arrivalMin float64, video int) (ClientResult, error) {
	cfg := s.scheme.Config()
	if video < 0 || video >= cfg.Videos {
		return ClientResult{}, fmt.Errorf("sim: video %d outside broadcast set 0..%d", video, cfg.Videos-1)
	}
	if arrivalMin < 0 {
		return ClientResult{}, fmt.Errorf("sim: negative arrival %v", arrivalMin)
	}
	start := firstAtOrAfter(arrivalMin, s.scheme.BatchingIntervalMin(), 0)
	f := flow{segment: 1, startMin: start, endMin: start + cfg.LengthMin, rateMbps: cfg.RateMbps}
	w := getWorkspace()
	defer workspaces.Put(w)
	w.downloads = append(w.downloads, f)
	w.playbacks = append(w.playbacks, f)
	res, err := w.runFlows(arrivalMin)
	if err != nil {
		return ClientResult{}, fmt.Errorf("sim: %s: %w", s.Name(), err)
	}
	return res, nil
}
