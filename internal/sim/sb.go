package sim

import (
	"fmt"
	"math"

	"skyscraper/internal/core"
)

// SB simulates a Skyscraper Broadcasting client: the server's K channels
// per video each rebroadcast their fragment back-to-back at the display
// rate (all aligned at virtual time 0), and the client executes the
// two-loader reception plan, tuning only at broadcast beginnings.
type SB struct {
	scheme *core.Scheme
	// videoPhase staggers different videos' channel groups; reception of
	// a single video is phase-invariant, so it defaults to 0.
}

// NewSB wraps an SB scheme for simulation.
func NewSB(scheme *core.Scheme) *SB { return &SB{scheme: scheme} }

// Name implements ClientSim.
func (s *SB) Name() string {
	return fmt.Sprintf("SB:W=%d", s.scheme.Width())
}

// Client implements ClientSim. The video index selects one of the M
// broadcast videos; all are symmetric under SB, but the index is validated
// against the configuration.
func (s *SB) Client(arrivalMin float64, video int) (ClientResult, error) {
	if video < 0 || video >= s.scheme.Config().Videos {
		return ClientResult{}, fmt.Errorf("sim: video %d outside broadcast set 0..%d", video, s.scheme.Config().Videos-1)
	}
	if arrivalMin < 0 {
		return ClientResult{}, fmt.Errorf("sim: negative arrival %v", arrivalMin)
	}
	d1 := s.scheme.UnitMinutes()
	// Playback starts at the next fragment-1 broadcast: channel 1 has
	// period D1 aligned to time 0.
	playUnit := int64(math.Ceil(arrivalMin / d1))
	plan, err := s.scheme.PlanSchedule(playUnit)
	if err != nil {
		return ClientResult{}, err
	}
	b := s.scheme.Config().RateMbps
	w := getWorkspace()
	defer workspaces.Put(w)
	for _, dl := range plan.Downloads {
		g := dl.Group
		for j := 0; j < g.Count; j++ {
			seg := g.First + j
			// Compute every boundary as unit*d1 so that identical
			// instants are bitwise-equal floats; back-to-back
			// fragment downloads must not appear to overlap.
			dU := dl.FragmentStart(j)
			pU := playUnit + g.StartUnit + int64(j)*g.Size
			w.downloads = append(w.downloads, flow{
				segment: seg, startMin: float64(dU) * d1, endMin: float64(dU+g.Size) * d1, rateMbps: b})
			w.playbacks = append(w.playbacks, flow{
				segment: seg, startMin: float64(pU) * d1, endMin: float64(pU+g.Size) * d1, rateMbps: b})
		}
	}
	res, err := w.runFlows(arrivalMin)
	if err != nil {
		return ClientResult{}, fmt.Errorf("sim: %s: %w", s.Name(), err)
	}
	return res, nil
}

// Scheme returns the underlying analytic scheme.
func (s *SB) Scheme() *core.Scheme { return s.scheme }
