//go:build race

package tcpnet

// raceEnabled reports a -race build: sync.Pool then drops a share of what is
// put back, on purpose, so allocation pins that rely on a pool do not hold.
const raceEnabled = true
