//go:build race

package demikernel

// raceEnabled gates the allocation fences, which cannot hold under the race
// detector: sync.Pool deliberately drops a fraction of Puts when built with
// -race (to widen the interleaving space), so a path that recycles through
// a pool allocates there and nowhere else.
const raceEnabled = true
