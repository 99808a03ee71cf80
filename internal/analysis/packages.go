package analysis

import "strings"

// Package classification. The rules are keyed on import paths so the
// analysistest golden packages (loaded under synthetic paths such as
// "maporder" or "abcast/internal/tcpnet") exercise exactly the same
// decisions the real tree does.

// modulePrefix is the import-path prefix of this repository's packages.
const modulePrefix = "abcast"

// mapOrderCritical lists the determinism-critical packages in which a map
// range must not perform an order-sensitive effect. These are the packages
// on the simulated execution path whose event order feeds the pinned
// benchmark trajectory.
var mapOrderCritical = map[string]bool{
	"abcast/internal/sim":       true,
	"abcast/internal/simnet":    true,
	"abcast/internal/core":      true,
	"abcast/internal/consensus": true,
	"abcast/internal/relink":    true,
	"abcast/internal/rbcast":    true,
	"abcast/internal/fd":        true,
	"abcast/internal/adapt":     true,
	"abcast/internal/msg":       true,
	"abcast/internal/stack":     true,
	"abcast/internal/bench":     true,
	"abcast/internal/persist":   true,
}

// simPath lists the packages that run (also) under the virtual clock: all
// of mapOrderCritical plus the pure-model packages they pull in. These
// must not read the wall clock or the global math/rand source.
var simPath = map[string]bool{
	"abcast/internal/netmodel": true,
	"abcast/internal/wire":     true,
}

func init() {
	for p := range mapOrderCritical {
		simPath[p] = true
	}
}

// wallClockAllowed lists the packages that legitimately face the host
// clock: the wall-clock runtime (the evloop core and its live and tcpnet
// transports), its statistics, the public Cluster API (caller-side
// timeouts), and every command and example binary.
func wallClockAllowed(path string) bool {
	switch path {
	case modulePrefix, "abcast/internal/evloop", "abcast/internal/tcpnet", "abcast/internal/live", "abcast/internal/stats":
		return true
	}
	return strings.HasPrefix(path, "abcast/cmd/") ||
		strings.HasPrefix(path, "abcast/examples/")
}

// inModule reports whether path belongs to this repository's module. The
// analysistest packages are loaded under paths outside the module so they
// default to "checked" for both classification-driven analyzers unless
// they deliberately mirror an allowlisted real path.
func inModule(path string) bool {
	return path == modulePrefix || strings.HasPrefix(path, modulePrefix+"/")
}

// mapOrderChecked reports whether maporder applies to the package.
func mapOrderChecked(path string) bool {
	if !inModule(path) {
		return true // testdata golden packages
	}
	return mapOrderCritical[path]
}

// wallTimeChecked reports whether walltime applies to the package.
func wallTimeChecked(path string) bool {
	if !inModule(path) {
		return true // testdata golden packages
	}
	if wallClockAllowed(path) {
		return false
	}
	return simPath[path]
}
