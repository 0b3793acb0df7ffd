//go:build race

package wire

// raceEnabled reports the race detector is active; the exhaustive encoder
// sweep is strided there, as instrumented loops make it take minutes.
const raceEnabled = true
