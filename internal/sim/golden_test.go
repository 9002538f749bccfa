package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"skyscraper/internal/core"
	"skyscraper/internal/metrics"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

// goldenClients is the number of fixed (arrival, video) pairs hashed per
// scheme; goldenSweepClients is the population of the hashed sweep.
const (
	goldenClients      = 400
	goldenSweepClients = 3000
)

// goldenHashes pins every ClientResult field and the sweep statistics of
// each scheme, bit for bit. The values were generated with the replay that
// ran every flow edge through a des.Sim event heap; the edge sweep that
// replaced it must reproduce them unchanged. Keys are "B=<Mbit/s>/<name>".
var goldenHashes = map[string]struct{ clients, sweep uint64 }{
	"B=150/PB:a":      {0xe7648b0160f88b22, 0xf468b636cf0ea46f},
	"B=150/PB:b":      {0x708520b341d2f9f2, 0x33c2e88d27b19b8e},
	"B=150/PPB:a":     {0x48785d565bcce5b7, 0x845b93e128b9fdbb},
	"B=150/PPB:b":     {0xb02f0ee8ccb9c99f, 0xc6fca3ff75942b18},
	"B=150/SB:W=0":    {0x3adf425b5a44d49c, 0xeb6b5f1e2bdb14b3},
	"B=150/SB:W=12":   {0xf83acb03420ad9cc, 0x64d52cc1fd10812},
	"B=150/SB:W=2":    {0x96863ea8f6c3cc40, 0xf374aafb969f2caa},
	"B=150/SB:W=52":   {0x3adf425b5a44d49c, 0xeb6b5f1e2bdb14b3},
	"B=150/Staggered": {0x529e4e0c1ff6bc18, 0x3445b4fb72eced42},
	"B=320/PB:a":      {0x79605d2098d2d42a, 0x5764ce0d80c273ef},
	"B=320/PB:b":      {0x2494bc998b72f77d, 0x1013164d449798f2},
	"B=320/PPB:a":     {0xed61e3e7c961318, 0x35d600a40d5ddd99},
	"B=320/PPB:b":     {0xfac7691576e8f18d, 0x6abeeb5234f69179},
	"B=320/SB:W=0":    {0x500e9e5d5470d757, 0x98a6a8a27a907ce3},
	"B=320/SB:W=12":   {0x23ab8886caff84b5, 0xa227fe5313e57967},
	"B=320/SB:W=2":    {0x3ef67b96e4026b03, 0x992a685750481dc4},
	"B=320/SB:W=52":   {0x2759d3a79c95f633, 0xf21fe7933ccad127},
	"B=320/Staggered": {0xec5a27b52622d19, 0x4c8b6d1a1f891f1b},
	"B=600/PB:a":      {0xf9686c5e87b5189d, 0x43f339d5518bec51},
	"B=600/PB:b":      {0x8927e2931ed63cae, 0xb6e5f33583ba87f3},
	"B=600/PPB:a":     {0x4d8ed490c665cbf1, 0xec5d39bf131e9f74},
	"B=600/PPB:b":     {0x4d8ed490c665cbf1, 0xec5d39bf131e9f74},
	"B=600/SB:W=0":    {0x5a03ae54e29c4825, 0xf86b57aec13d7ade},
	"B=600/SB:W=12":   {0xa5692cf009888ab5, 0xd172a3146dc0732d},
	"B=600/SB:W=2":    {0x41837b28fad1885b, 0xb422c0f7734528ca},
	"B=600/SB:W=52":   {0xbc6b9ca7ad58bf19, 0xfc5aa7856fcb8de9},
	"B=600/Staggered": {0xb7fcdd92e1a0588f, 0x6ca833103fba47d},
}

// goldenSims builds every simulated scheme at B in {150, 320, 600}: SB at
// W in {2, 12, 52, uncapped}, PB:a/b, PPB:a/b and staggered.
func goldenSims(t *testing.T) map[string]goldenCase {
	t.Helper()
	out := map[string]goldenCase{}
	for _, b := range []float64{150, 320, 600} {
		cfg := vod.DefaultConfig(b)
		add := func(cs ClientSim, p vod.Performer) {
			out[fmt.Sprintf("B=%v/%s", b, cs.Name())] = goldenCase{cs, p.AccessLatencyMin()}
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("B=%v: %v", b, err)
			}
		}
		for _, w := range []int64{2, 12, 52, 0} {
			sch, err := core.New(cfg, w)
			must(err)
			add(NewSB(sch), sch)
		}
		for _, m := range []pyramid.Method{pyramid.MethodA, pyramid.MethodB} {
			sch, err := pyramid.New(cfg, m)
			must(err)
			add(NewPB(sch), sch)
		}
		for _, m := range []ppb.Method{ppb.MethodA, ppb.MethodB} {
			sch, err := ppb.New(cfg, m)
			must(err)
			add(NewPPB(sch), sch)
		}
		sch, err := staggered.New(cfg)
		must(err)
		add(NewStaggered(sch), sch)
	}
	return out
}

// goldenCase is one simulated scheme with its closed-form access latency.
type goldenCase struct {
	cs  ClientSim
	lat float64
}

func hashFloat(h hash.Hash64, v float64) {
	var b [8]byte
	u := math.Float64bits(v)
	for i := range b {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// hashClients plays goldenClients fixed clients and hashes every field of
// every result. Arrivals alternate between an irrational-ish stride over
// three video lengths and exact multiples of the scheme's access latency,
// where the broadcast grid's boundary cases live.
func hashClients(t *testing.T, cs ClientSim, lat float64) uint64 {
	t.Helper()
	h := fnv.New64a()
	for i := 0; i < goldenClients; i++ {
		arrival := float64(i) * 0.9137
		if i%4 == 3 {
			arrival = float64(i) * lat
		}
		video := i % 10
		r, err := cs.Client(arrival, video)
		if err != nil {
			t.Fatalf("%s client %d (arrival %v, video %d): %v", cs.Name(), i, arrival, video, err)
		}
		for _, v := range []float64{
			r.ArrivalMin, r.PlayStartMin, r.WaitMin, r.MaxBufferMbit, r.AvgBufferMbit,
			float64(r.MaxStreams), r.MaxIOMbps, r.DownloadedMbit, r.PlaybackEndMin,
		} {
			hashFloat(h, v)
		}
	}
	return h.Sum64()
}

// hashSweep hashes the Sum, Max and median of a sweep's wait, buffer and
// stream summaries.
func hashSweep(t *testing.T, cs ClientSim) uint64 {
	t.Helper()
	res, err := Sweep(cs, goldenSweepClients, 1000, 10, 4711, Workers(2))
	if err != nil {
		t.Fatalf("%s sweep: %v", cs.Name(), err)
	}
	h := fnv.New64a()
	for _, s := range []*metrics.Summary{&res.WaitMin, &res.BufferMbit, &res.Streams} {
		hashFloat(h, s.Sum())
		hashFloat(h, s.Max())
		hashFloat(h, s.Quantile(0.5))
	}
	return h.Sum64()
}

// TestClientResultsGolden proves that the flow replay's answers never
// change: every ClientResult field of ~400 fixed clients per scheme, and
// the sweep statistics of a 3,000-client population, hash to the committed
// constants.
func TestClientResultsGolden(t *testing.T) {
	sims := goldenSims(t)
	if len(sims) != len(goldenHashes) {
		t.Errorf("%d schemes simulated, %d golden hashes", len(sims), len(goldenHashes))
	}
	keys := make([]string, 0, len(sims))
	for k := range sims {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, key := range keys {
		gc := sims[key]
		clients, sweep := hashClients(t, gc.cs, gc.lat), hashSweep(t, gc.cs)
		want, ok := goldenHashes[key]
		if !ok || clients != want.clients || sweep != want.sweep {
			t.Errorf("%s: hashes {%#x, %#x}, want {%#x, %#x}", key, clients, sweep, want.clients, want.sweep)
			t.Logf("\t%q: {%#x, %#x},", key, clients, sweep)
		}
	}
}
