package viewer

import (
	"sync/atomic"
	"testing"
	"time"

	"skyscraper/internal/wire"
)

func TestPlayedBytes(t *testing.T) {
	m := &Mux{}
	m.setWelcome(&wire.Welcome{
		SizeUnits:     []int64{1, 2},
		BytesPerUnit:  100,
		UnitNanos:     int64(time.Second),
		EpochUnixNano: time.Unix(1000, 0).UnixNano(),
	})
	c := &cohort{mux: m, playStartUnit: 10}
	start := time.Unix(1010, 0)
	if got := c.played(start.Add(-time.Second)); got != 0 {
		t.Errorf("before start: %d", got)
	}
	if got := c.played(start.Add(1500 * time.Millisecond)); got != 150 {
		t.Errorf("1.5 units in: %d, want 150", got)
	}
	if got := c.played(start.Add(time.Hour)); got != 300 {
		t.Errorf("past end: %d, want 300 (capped)", got)
	}

	// The buffer level is shared bytes plus the most any member recovered
	// on its own, minus playback, and the ledger keeps its peak.
	c.buffer(250, start.Add(500*time.Millisecond)) // 250 - 50 played
	c.ownMax.Store(40)
	c.buffer(0, start.Add(time.Second)) // 250 + 40 - 100 played
	if got := c.maxBuffer.Load(); got != 200 {
		t.Errorf("peak buffer %d, want 200", got)
	}
}

func TestMaxInt64(t *testing.T) {
	var a atomic.Int64
	maxInt64(&a, 5)
	maxInt64(&a, 3)
	maxInt64(&a, 9)
	if a.Load() != 9 {
		t.Errorf("maxInt64 = %d, want 9", a.Load())
	}
}

// TestBackoffJitterDesync: the anti-storm property of the session seed.
// Two sessions with different seeds must draw different backoff schedules
// from the same retry sites (so a shared fault or a shared Busy release
// time does not re-synchronize them), while the same seed must reproduce
// the same schedule exactly, and every delay must respect (0, window] with
// the 1ms anti-spin floor. The control connection's re-dial backoff draws
// from the reconnect site: it must hold the same properties, advance to a
// fresh stream on every sleep, and stay inside its doubling window.
func TestBackoffJitterDesync(t *testing.T) {
	const window = 80 * time.Millisecond
	schedule := func(seed uint64) []time.Duration {
		var ds []time.Duration
		for stream := uint64(1); stream <= 8; stream++ {
			ds = append(ds,
				JitterIn(seed, jitterKeyReconnect, stream, window),
				JitterIn(seed, RepairJitterKey(3, 7), stream, window))
		}
		return ds
	}
	checkDesync(t, "retry sites", schedule(1), schedule(2), schedule(1), func(int) time.Duration { return window })
	// Distinct retry sites under one seed must also not share a stream.
	if JitterIn(1, jitterKeyReconnect, 1, window) == JitterIn(1, RepairJitterKey(1, 1), 1, window) {
		t.Error("reconnect and repair sites drew identical jitter from one seed")
	}

	// Three re-dial rounds on one mux, as after three server hangups.
	redials := func(seed uint64) []time.Duration {
		m := &Mux{cfg: MuxConfig{Seed: seed}}
		var ds []time.Duration
		for round := 0; round < 3; round++ {
			for attempt := 1; attempt < redialAttempts; attempt++ {
				ds = append(ds, m.redialDelay(attempt))
			}
		}
		return ds
	}
	redialWindow := func(i int) time.Duration { return 10 * time.Millisecond << (i % (redialAttempts - 1)) }
	a := redials(1)
	checkDesync(t, "re-dial", a, redials(2), redials(1), redialWindow)
	if a[0] == a[redialAttempts-1] && a[1] == a[redialAttempts] {
		t.Error("successive re-dial rounds repeat one schedule; the stream counter does not advance")
	}
}

// checkDesync asserts a backoff schedule is reproducible (a == again),
// bounded by its per-slot window with the 1ms floor, and desynchronized
// from another seed's schedule b.
func checkDesync(t *testing.T, what string, a, b, again []time.Duration, window func(i int) time.Duration) {
	t.Helper()
	same := 0
	for i := range a {
		if a[i] != again[i] {
			t.Fatalf("%s: seed not reproducible at slot %d: %v vs %v", what, i, a[i], again[i])
		}
		if a[i] < time.Millisecond || a[i] > window(i) {
			t.Errorf("%s: slot %d delay %v outside [1ms, %v]", what, i, a[i], window(i))
		}
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/4 {
		t.Errorf("%s: seeds collide on %d/%d backoff slots; schedules not desynchronized", what, same, len(a))
	}
}

// TestWorkerFinishesOnDeadlineLoss pins the worker's completion edge: a
// recovery pass that declares a viewer's last outstanding chunk lost must
// finish the viewer at once. Parking it until the fragment's receive
// cutoff (units later) holds the cohort loader on this fragment past the
// next one's join time, and the whole next fragment is lost cohort-wide.
func TestWorkerFinishesOnDeadlineLoss(t *testing.T) {
	m := &Mux{ledgers: make([]viewerLedger, 1)}
	m.setWelcome(&wire.Welcome{SizeUnits: []int64{2}, BytesPerUnit: 2048, ChunkBytes: 1024,
		UnitNanos: int64(10 * time.Millisecond), EpochUnixNano: time.Unix(1000, 0).UnixNano()})
	c := &cohort{mux: m, viewers: []int{0}}
	p := equivGeometry()
	p.Jitter = func(_, _ uint64, w time.Duration) time.Duration { return w }
	f := &cohortFrag{c: c, params: p, wake: make(chan struct{}, 1)}
	f.pending.Store(1)
	vf := c.newViewerFrag(f, 0, 0)
	w := &worker{mux: m}

	// Past chunk 0's loss deadline but well before the receive cutoff.
	now := vf.vm.LostBy(0).Add(time.Millisecond)
	if !now.Before(vf.vm.Deadline()) {
		t.Fatal("geometry leaves no room between the loss deadline and the cutoff")
	}
	w.step(vf, now)
	if !vf.done || f.pending.Load() != 0 {
		t.Errorf("viewer done=%v pending=%d after its last chunk was declared lost, want finished",
			vf.done, f.pending.Load())
	}
	if len(w.h) != 0 {
		t.Errorf("finished viewer still parked on the wake heap (%d entries)", len(w.h))
	}
	if m.ledgers[0].lost != 1 {
		t.Errorf("ledger lost = %d, want 1", m.ledgers[0].lost)
	}
}
