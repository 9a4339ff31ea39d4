//go:build !race

package colorful

// raceEnabled: see race_on_test.go.
const raceEnabled = false
