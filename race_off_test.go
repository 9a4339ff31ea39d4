//go:build !race

package colorfulxml

// raceEnabled: see race_on_test.go.
const raceEnabled = false
