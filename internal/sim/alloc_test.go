package sim

import (
	"testing"

	"skyscraper/internal/core"
	"skyscraper/internal/ppb"
	"skyscraper/internal/pyramid"
	"skyscraper/internal/staggered"
	"skyscraper/internal/vod"
)

// TestClientAllocs gates the steady-state allocations of one simulated
// client at B=320. The flow lists and the replay's scratch come from a
// pooled workspace, so PB, PPB and staggered clients allocate nothing;
// an SB client allocates only the core reception plan (the Schedule and
// its Downloads).
func TestClientAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	cfg := vod.DefaultConfig(320)
	sbSch, err := core.New(cfg, 52)
	if err != nil {
		t.Fatal(err)
	}
	pbSch, err := pyramid.New(cfg, pyramid.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	ppbSch, err := ppb.New(cfg, ppb.MethodB)
	if err != nil {
		t.Fatal(err)
	}
	stSch, err := staggered.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cs    ClientSim
		limit float64
	}{
		{NewSB(sbSch), 2},
		{NewPB(pbSch), 0},
		{NewPPB(ppbSch), 0},
		{NewStaggered(stSch), 0},
	} {
		i := 0
		got := testing.AllocsPerRun(200, func() {
			if _, err := tc.cs.Client(float64(i%1000)*0.37, i%10); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > tc.limit {
			t.Errorf("%s: %v allocs per client, want <= %v", tc.cs.Name(), got, tc.limit)
		}
	}
}
