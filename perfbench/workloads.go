package main

import (
	"fmt"
	"time"

	"skyscraper/internal/core"
	"skyscraper/internal/des"
	"skyscraper/internal/faults"
	"skyscraper/internal/server"
	"skyscraper/internal/vod"
)

// spec is one named workload. Live workloads broadcast an SB scheme from
// a server child process to a mux audience (and, for stalled_server,
// closed-loop client.Watch sessions); sweep runs the population
// simulator instead. NOTES.md records why each was chosen.
type spec struct {
	name string

	// Broadcast geometry: M videos, K channels each, width W, one D1
	// unit of wall time carrying bytesPerUnit bytes in chunkBytes chunks.
	videos, channels int
	width            int64
	unit             time.Duration
	bytesPerUnit     int

	// The open-loop mux audience: viewers arrive at seeded offsets
	// uniform over spread units, round-robin over the videos. slack and
	// repairLag are the viewers' playout slack and repair lag in units.
	viewers   int
	spread    float64
	slack     float64
	repairLag float64

	// The repair plane: parity stripe width (0 = off), iid drop rate,
	// Gilbert–Elliott burst triple (enter, exit, drop), and the unicast
	// repair budget in bytes/s.
	fecGroup        int
	drop            float64
	burst           [3]float64
	repairBandwidth int64

	// stalled_server: the benchmark freezes the server process for
	// stallFor out of every stallEvery, while one closed-loop
	// client.Watch session per CPU runs beside the mux.
	stallEvery, stallFor time.Duration
	clients              bool

	// sweep selects the population simulator; sweepClients is the
	// population per scheme per round.
	sweep        bool
	sweepClients int
}

// Audience settings every live workload shares: 1 KiB chunks, one mux
// repair worker (the audience has one P), and a join lead of 0.9 unit,
// which covers a control round trip and keeps every start wait within
// 1.9 units.
const (
	chunkBytes = 1024
	muxWorkers = 1
	joinLead   = 0.9
)

// workloads lists every workload by name; NOTES.md records how each
// was sized.
var workloads = map[string]spec{
	"dense_lossless": {
		name: "dense_lossless", videos: 20, channels: 10, width: 52,
		unit: 50 * time.Millisecond, bytesPerUnit: 4096,
		viewers: 5000, spread: 4, slack: 4, repairLag: 1,
	},
	"lossy_audience": {
		name: "lossy_audience", videos: 8, channels: 8, width: 12,
		unit: 100 * time.Millisecond, bytesPerUnit: 4096,
		viewers: 5000, spread: 10, slack: 8, repairLag: 0.3,
		fecGroup: 4, drop: 0.02, burst: [3]float64{0.01, 0.3, 1},
		repairBandwidth: 4 << 20,
	},
	"stalled_server": {
		name: "stalled_server", videos: 4, channels: 5, width: 5,
		unit: 100 * time.Millisecond, bytesPerUnit: 64 << 10,
		viewers: 1000, spread: 4, slack: 2, repairLag: 0.75,
		stallEvery: 400 * time.Millisecond, stallFor: 50 * time.Millisecond,
		clients: true,
	},
	"sim_sweep": {
		name: "sim_sweep", sweep: true, sweepClients: 10000,
	},
}

func lookup(name string) (spec, error) {
	sp, ok := workloads[name]
	if !ok {
		return spec{}, fmt.Errorf("unknown workload %q", name)
	}
	return sp, nil
}

// scheme builds the SB scheme the server broadcasts: ServerMbps is sized
// so the scheme has exactly K channels per video.
func (sp spec) scheme() (*core.Scheme, error) {
	return core.New(vod.Config{
		ServerMbps: 1.5 * float64(sp.videos*sp.channels),
		Videos:     sp.videos,
		LengthMin:  120,
		RateMbps:   1.5,
	}, sp.width)
}

// faultPlan is round's seeded fault plan, nil on a lossless workload.
// Each round injures different chunk positions, so a run averages over
// several plans.
func (sp spec) faultPlan(seed uint64, round int) *faults.Plan {
	if sp.drop == 0 && sp.burst[0] == 0 {
		return nil
	}
	p := &faults.Plan{Seed: des.SubSeed(des.SubSeed(seed, seedFaults), uint64(round)), Drop: sp.drop}
	if sp.burst[0] > 0 {
		p.BurstEnter, p.BurstExit, p.BurstDrop = sp.burst[0], sp.burst[1], sp.burst[2]
		p.ChunkBytes = chunkBytes
	}
	return p
}

// serverConfig is the server.Config the child process runs.
func (sp spec) serverConfig(seed uint64, round int) (server.Config, error) {
	sch, err := sp.scheme()
	if err != nil {
		return server.Config{}, err
	}
	if sch.K() != sp.channels {
		return server.Config{}, fmt.Errorf("%s: scheme has %d channels, want %d", sp.name, sch.K(), sp.channels)
	}
	return server.Config{
		Scheme:          sch,
		Unit:            sp.unit,
		BytesPerUnit:    sp.bytesPerUnit,
		ChunkBytes:      chunkBytes,
		Faults:          sp.faultPlan(seed, round),
		FecGroup:        sp.fecGroup,
		RepairBandwidth: sp.repairBandwidth,
	}, nil
}

// Substreams of the workload seed; each generated input draws from its
// own so changing one never shifts another.
const (
	seedFaults = iota + 1
	seedMux
	seedClients
	seedSweep
)
