//go:build race

package colorfulxml

// raceEnabled: the race detector drops sync.Pool entries at random, so a
// test that counts allocations has nothing stable to count under it.
const raceEnabled = true
