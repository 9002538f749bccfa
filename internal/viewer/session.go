package viewer

import (
	"fmt"
	"time"

	"skyscraper/internal/series"
	"skyscraper/internal/trace"
)

// SessionConfig parameterizes one viewing session (client.Config).
type SessionConfig struct {
	// ServerAddr is the server's TCP control address.
	ServerAddr string
	// Video is the catalog index to watch.
	Video int
	// JoinLeadFrac is how early, as a fraction of one unit, a loader
	// sends its join before the broadcast it wants (covers control RTT).
	// Defaults to 0.5.
	JoinLeadFrac float64
	// SlackFrac is the fraction of one unit a chunk may arrive after its
	// scheduled playback before it counts as jitter. Defaults to 0.5.
	SlackFrac float64
	// RepairLagFrac is how long after a chunk's expected arrival, as a
	// fraction of one unit, a loader waits before requesting a unicast
	// repair (absorbs pacing drift and reordering before declaring a
	// gap). Defaults to 0.5.
	RepairLagFrac float64
	// DisableRepair turns the loss-recovery path off: missing chunks are
	// never requested from the server and become LostChunks when their
	// playback deadline passes.
	DisableRepair bool
	// DisableNack turns off the multicast-first NACK ladder: gaps go
	// straight to unicast KindRepair round trips. The ladder is on by
	// default whenever the server advertises it (Welcome.NackRepair), so
	// a burst of losses costs one aggregated gap-bitmap NACK and heals
	// off one multicast re-send shared by the whole injured audience.
	DisableNack bool
	// AllowDegraded lets a session complete, with losses and jitter
	// counted in Stats, instead of failing when chunks could not be
	// recovered before their playback deadline. Content-verification
	// errors always fail the session.
	AllowDegraded bool
	// Seed keys the session's deterministic backoff jitter: every repair
	// retry and control reconnect sleeps a full-jitter delay drawn from a
	// substream of this seed, so two clients with different seeds
	// desynchronize their retry schedules instead of re-storming the
	// server in lockstep — while a given seed always reproduces the same
	// schedule.
	Seed uint64
	// ControlTimeout bounds each control round trip (join acks, repair
	// replies) and each reconnect dial. Defaults to 5 seconds.
	ControlTimeout time.Duration
	// MaxBufferBytes, when positive, is the client's disk capacity; the
	// session fails if reception exceeded it. Provision it from the
	// scheme's 60*b*D1*(W-1) bound (in the live demo's units:
	// (W-1)*BytesPerUnit plus one chunk of arrival granularity).
	MaxBufferBytes int64
	// RecvBufBytes sizes the kernel receive buffer of the session's UDP
	// socket (SetReadBuffer). The server's batched egress delivers chunks
	// in deliberate bursts, so the buffer must absorb a whole burst while
	// the receiver goroutine is scheduled out. Zero selects
	// mcast.DefaultRecvBufBytes (4 MiB).
	RecvBufBytes int
	// Trace, when non-nil, journals recovery events — gaps, repair round
	// trips, losses, reconnects — on the wall-minutes scale of the
	// broadcast epoch, so a failing chaos run can explain itself.
	Trace *trace.Buffer
	// Logf, when non-nil, receives diagnostic output.
	Logf func(format string, args ...any)
}

// SessionStats reports a completed session (client.Stats).
type SessionStats struct {
	// WaitUnits is the access latency in D1 units (bounded by 1 plus the
	// configured join lead).
	WaitUnits float64
	// Bytes is the total payload received and verified.
	Bytes int64
	// ByteErrors counts content-verification mismatches (must be 0).
	ByteErrors int64
	// LateChunks counts payload chunks that arrived after their
	// scheduled playback time plus slack (jitter; 0 when the paper's
	// guarantee holds).
	LateChunks int64
	// DuplicateChunks counts retransmissions discarded (tuning overlap
	// or injected duplication).
	DuplicateChunks int64
	// LostChunks counts chunks neither broadcast nor repaired before
	// their playback deadline (0 in a healthy or repairable session).
	LostChunks int64
	// RepairedChunks counts chunks recovered over unicast REPAIR.
	RepairedChunks int64
	// RepairRequests counts REPAIR round trips issued, retries included.
	RepairRequests int64
	// NacksSent counts gap-bitmap NACK round trips issued (one may cover
	// a burst of losses); NacksSuppressed aggregation windows that closed
	// with nothing left to report; MulticastRepairs chunks healed by a
	// NACK-triggered multicast re-send rather than a unicast pull.
	NacksSent        int64
	NacksSuppressed  int64
	MulticastRepairs int64
	// FecHeals counts chunks reconstructed locally from the proactive
	// parity stripe — zero control round trips; StripeDefeats gaps the
	// stripe could not cover (burst loss) that escalated to the NACK
	// ladder.
	FecHeals      int64
	StripeDefeats int64
	// BusyReplies counts repair requests the server pushed back with Busy
	// (admission control or storm suppression).
	BusyReplies int64
	// Reconnects counts control-connection re-dials that succeeded.
	Reconnects int64
	// MaxBufferBytes is the high-water mark of downloaded-but-unplayed
	// data.
	MaxBufferBytes int64
	// Groups is the number of transmission groups received.
	Groups int
}

// Watch runs one full viewing session — handshake, two-loader reception
// of every fragment, loss recovery, byte verification, and jitter and
// buffer accounting — as a Mux with one viewer and one worker: the
// paper's Odd Loader, Even Loader, and Video Player are the cohort's
// loader pair and playback schedule. The viewer watches exactly
// cfg.Video with exactly cfg.Seed, and its repair plane shares the join
// connection, so the server sees one control session. It returns when
// the whole video has been received and its playback window has passed;
// a session that completes but fails a verdict (byte errors, buffer
// capacity, or — unless AllowDegraded — losses or jitter) returns its
// stats alongside the error.
func Watch(cfg SessionConfig) (*SessionStats, error) {
	m, err := NewMux(MuxConfig{
		ServerAddr:     cfg.ServerAddr,
		Viewers:        1,
		Workers:        1,
		Seed:           cfg.Seed,
		JoinLeadFrac:   cfg.JoinLeadFrac,
		SlackFrac:      cfg.SlackFrac,
		RepairLagFrac:  cfg.RepairLagFrac,
		DisableRepair:  cfg.DisableRepair,
		DisableNack:    cfg.DisableNack,
		ControlTimeout: cfg.ControlTimeout,
		RecvBufBytes:   cfg.RecvBufBytes,
		// One viewer tunes at most four groups at once (two loaders, each
		// with its handoff successor), so audience-sized rings would only
		// pin memory: eight recvmmsg slots take two reads (or GRO
		// super-frames) per tuned group, and 128-slot rings hold a
		// successor's join-lead strays plus over a unit of predecessor
		// overrun at 64 chunks per unit.
		RecvBatch: 8,
		SubDepth:  128,
		Logf:      cfg.Logf,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Video < 0 || cfg.Video >= m.w.Videos {
		m.jm.cc.close()
		return nil, fmt.Errorf("viewer: video %d outside catalog 0..%d", cfg.Video, m.w.Videos-1)
	}
	m.session, m.video, m.trace = true, cfg.Video, cfg.Trace
	res, err := m.Run()
	if err != nil {
		return nil, err
	}
	st := &SessionStats{
		WaitUnits:        m.waits[0],
		Bytes:            res.Bytes,
		ByteErrors:       res.ByteErrors,
		LateChunks:       res.LateChunks,
		DuplicateChunks:  res.DuplicateChunks,
		LostChunks:       res.LostChunks,
		RepairedChunks:   res.RepairedChunks,
		RepairRequests:   res.RepairRequests,
		NacksSent:        res.NacksSent,
		NacksSuppressed:  res.NacksSuppressed,
		MulticastRepairs: res.MulticastRepairs,
		FecHeals:         res.FecHeals,
		StripeDefeats:    res.StripeDefeats,
		BusyReplies:      res.BusyReplies,
		Reconnects:       res.Reconnects,
		MaxBufferBytes:   res.MaxBufferBytes,
		Groups:           len(series.Groups(m.w.SizeUnits)),
	}
	if cfg.MaxBufferBytes > 0 && st.MaxBufferBytes > cfg.MaxBufferBytes {
		return st, fmt.Errorf("viewer: buffer capacity exceeded: %d > %d bytes", st.MaxBufferBytes, cfg.MaxBufferBytes)
	}
	if st.ByteErrors > 0 {
		return st, fmt.Errorf("viewer: %d byte verification errors", st.ByteErrors)
	}
	if !cfg.AllowDegraded {
		if st.LostChunks > 0 {
			return st, fmt.Errorf("viewer: %d chunks lost (unrepaired before playback)", st.LostChunks)
		}
		if st.LateChunks > 0 {
			return st, fmt.Errorf("viewer: jitter: %d chunks arrived after their playback time", st.LateChunks)
		}
	}
	return st, nil
}
