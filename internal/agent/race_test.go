//go:build race

package agent

// raceEnabled reports a race-detector build, under which sync.Pool
// drops pooled items at random.
const raceEnabled = true
