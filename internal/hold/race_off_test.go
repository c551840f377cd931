//go:build !race

package hold

// See race_on_test.go.
const raceEnabled = false
