//go:build !race

package sim

// raceEnabled lets alloc-count assertions stand down under the race
// detector: sync.Pool deliberately drops a fraction of Puts when race
// instrumentation is on, so the pooled replay workspaces cannot
// demonstrate their steady-state allocation count there.
const raceEnabled = false
