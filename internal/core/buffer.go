package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// ProfilePoint is one breakpoint of a client's piecewise-linear buffer
// occupancy curve: the buffered amount at a slope change.
type ProfilePoint struct {
	// Unit is the absolute time in D1 units.
	Unit int64
	// Occupancy is the buffered data at that instant, in D1 units of
	// data; one unit is 60*b*D1 Mbit.
	Occupancy int64
}

// BufferProfile is the client's disk-buffer occupancy over time implied by
// a Schedule: at every instant, the total data downloaded so far minus the
// total data played back so far. Download and playback both proceed at the
// display rate b, so the curve is piecewise linear with slope changes only
// where a download or the playback starts or ends; Points records exactly
// those breakpoints, which is where the curve's extremes occur. This is the
// machine-checked form of the hand-drawn curves in the paper's Figures 1-4.
type BufferProfile struct {
	// StartUnit is the playback start; EndUnit is when both playback and
	// all downloads have finished.
	StartUnit, EndUnit int64
	// Points are the slope-change breakpoints, strictly increasing in
	// Unit, beginning at StartUnit and ending at EndUnit.
	Points []ProfilePoint
}

// Max returns the profile's high-water mark in units.
func (bp *BufferProfile) Max() int64 {
	var m int64
	for _, p := range bp.Points {
		if p.Occupancy > m {
			m = p.Occupancy
		}
	}
	return m
}

// Final returns the occupancy at EndUnit; a correct schedule drains to 0.
func (bp *BufferProfile) Final() int64 {
	if len(bp.Points) == 0 {
		return 0
	}
	return bp.Points[len(bp.Points)-1].Occupancy
}

// At returns the occupancy at absolute time t by linear interpolation
// between breakpoints. Times outside [StartUnit, EndUnit] return 0.
func (bp *BufferProfile) At(t int64) int64 {
	if t <= bp.StartUnit || len(bp.Points) == 0 {
		if len(bp.Points) > 0 && t == bp.StartUnit {
			return bp.Points[0].Occupancy
		}
		return 0
	}
	if t >= bp.EndUnit {
		return bp.Final()
	}
	i := sort.Search(len(bp.Points), func(i int) bool { return bp.Points[i].Unit > t })
	// Points[i-1].Unit <= t < Points[i].Unit; interpolate.
	p0, p1 := bp.Points[i-1], bp.Points[i]
	return p0.Occupancy + (p1.Occupancy-p0.Occupancy)*(t-p0.Unit)/(p1.Unit-p0.Unit)
}

// MaxMbit converts the high-water mark into Mbit for a given display rate
// (Mbit/s) and unit duration D1 (minutes).
func (bp *BufferProfile) MaxMbit(rateMbps, unitMin float64) float64 {
	return float64(bp.Max()) * 60 * rateMbps * unitMin
}

// Profile computes the buffer occupancy implied by plan. It also verifies
// jitter-freeness: every fragment's bytes must be downloaded no later than
// they are played, and the buffer must never go negative; a violation
// returns an error (the paper proves none can occur, Section 4).
//
// The computation is sparse — O(groups log groups) regardless of the video
// length in units — so it works even for uncapped fragmentations whose unit
// counts exceed 10^12.
func (s *Scheme) Profile(plan *Schedule) (*BufferProfile, error) {
	bp := &BufferProfile{}
	if _, err := s.profileInto(bp, plan, nil); err != nil {
		return nil, err
	}
	return bp, nil
}

// slopeEvent is a change of the buffer curve's slope at time t.
type slopeEvent struct {
	t     int64
	slope int64
}

// profileInto computes Profile's result into bp, reusing the storage of
// bp.Points and of events, and returns the events buffer for the next call.
func (s *Scheme) profileInto(bp *BufferProfile, plan *Schedule, events []slopeEvent) ([]slopeEvent, error) {
	start := plan.PlayStartUnit
	end := start + s.total
	// Playback is one continuous stream over the whole video.
	events = append(events[:0], slopeEvent{start, -1}, slopeEvent{end, +1})
	for _, dl := range plan.Downloads {
		if e := dl.EndUnit(); e > end {
			end = e
		}
		events = append(events, slopeEvent{dl.StartUnit, +1}, slopeEvent{dl.EndUnit(), -1})
		// Per-fragment causality: fragment j must start downloading no
		// later than its playback starts.
		for j := 0; j < dl.Group.Count; j++ {
			dStart := dl.FragmentStart(j)
			pStart := start + dl.Group.StartUnit + int64(j)*dl.Group.Size
			if dStart > pStart {
				return events, fmt.Errorf("core: jitter: fragment %d downloads at %d but plays at %d",
					dl.Group.First+j, dStart, pStart)
			}
		}
	}
	// Slopes at equal times are summed, so the order within a tie does
	// not matter.
	slices.SortFunc(events, func(a, b slopeEvent) int { return cmp.Compare(a.t, b.t) })

	bp.StartUnit, bp.EndUnit = start, end
	bp.Points = slices.Grow(bp.Points[:0], len(events)+1)
	var occ, slope, prevT int64
	prevT = start
	for i := 0; i < len(events); {
		t := events[i].t
		occ += slope * (t - prevT)
		if occ < 0 {
			return events, fmt.Errorf("core: jitter: buffer underrun of %d units at time %d", -occ, t)
		}
		for i < len(events) && events[i].t == t {
			slope += events[i].slope
			i++
		}
		bp.Points = append(bp.Points, ProfilePoint{Unit: t, Occupancy: occ})
		prevT = t
	}
	if prevT != end {
		occ += slope * (end - prevT)
		bp.Points = append(bp.Points, ProfilePoint{Unit: end, Occupancy: occ})
	}
	if f := bp.Final(); f != 0 {
		return events, fmt.Errorf("core: accounting error: buffer holds %d units after playback ends", f)
	}
	return events, nil
}

// PhasePeriod returns the period after which client behavior repeats as a
// function of the playback start time: the least common multiple of all
// distinct fragment sizes (every channel's broadcast grid is a multiple of
// its fragment size). Enumerating playback starts in [0, PhasePeriod)
// covers every possible reception pattern. The result saturates at
// maxPeriod = 1<<50 for uncapped fragmentations.
func (s *Scheme) PhasePeriod() int64 {
	const maxPeriod = int64(1) << 50
	l := int64(1)
	seen := map[int64]bool{}
	for _, sz := range s.sizes {
		if !seen[sz] {
			seen[sz] = true
			g := gcd(l, sz)
			if l/g > maxPeriod/sz {
				return maxPeriod
			}
			l = l / g * sz
		}
	}
	return l
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// WorstCase holds the extremes of the scheme over every arrival phase.
type WorstCase struct {
	// BufferUnits is the maximum buffer occupancy in D1 units.
	BufferUnits int64
	// BufferPhase is a playback-start phase achieving it.
	BufferPhase int64
	// Phases is the number of distinct phases examined.
	Phases int64
}

// WorstCaseBuffer evaluates the buffer high-water mark over playback-start
// phases. If the phase period is at most maxPhases (or maxPhases <= 0), all
// phases are enumerated and the result is exact; otherwise phases are
// strided evenly and the result is a lower bound. The exact worst case
// equals the analytic bound 60*b*D1*(W-1), which the tests assert.
func (s *Scheme) WorstCaseBuffer(maxPhases int64) (WorstCase, error) {
	period := s.PhasePeriod()
	stride := int64(1)
	if maxPhases > 0 && period > maxPhases {
		stride = (period + maxPhases - 1) / maxPhases
	}
	wc := WorstCase{}
	// One plan, profile and event buffer serve every phase.
	var (
		plan   Schedule
		bp     BufferProfile
		events []slopeEvent
		err    error
	)
	for phase := int64(0); phase < period; phase += stride {
		if err = plan.fill(s.groups, phase); err != nil {
			return wc, err
		}
		if events, err = s.profileInto(&bp, &plan, events); err != nil {
			return wc, err
		}
		wc.Phases++
		if m := bp.Max(); m > wc.BufferUnits {
			wc.BufferUnits = m
			wc.BufferPhase = phase
		}
	}
	return wc, nil
}

// BreakPoints returns the times at which the profile changes slope, for
// rendering the paper's Figure 2-4 style curves.
func (bp *BufferProfile) BreakPoints() []int64 {
	pts := make([]int64, len(bp.Points))
	for i, p := range bp.Points {
		pts[i] = p.Unit
	}
	return pts
}
