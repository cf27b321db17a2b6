//go:build race

package stopandstare_test

// raceEnabled reports a -race build. The race detector drops sync.Pool items
// at random, so allocation counts are not exact under it.
const raceEnabled = true
