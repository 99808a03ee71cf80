//go:build !race

package abcast

const raceEnabled = false
