// Server-bench figures as cells of the scenario driver (scenario.go). Each
// figure is one comparison — tracing off against on, fleets of growing
// size, whole-file against chunked transfers, per-file against tree sync,
// one instance against several, a clean link against a faulty one — and
// each cell becomes one labelled row.
package experiment

import (
	"fmt"
	"time"

	"shadowedit/internal/netsim"
)

// benchDefaults holds each figure's session counts, cycles per session,
// file size and transport.
var benchDefaults = map[string]struct {
	sessions         []int
	cycles, fileSize int
	transport        string
}{
	"server":   {[]int{8}, 50, 8 << 10, "tcp"},
	"trace":    {[]int{8}, 50, 8 << 10, "tcp"},
	"capacity": {[]int{100, 1000, 5000, 10000}, 2, 2 << 10, "pipe"},
	"dedup":    {[]int{16}, 4, 48 << 10, "tcp"},
	"treesync": {[]int{1}, 1, 256, "netsim"},
	"cluster":  {[]int{16}, 10, 8 << 10, "netsim"},
	"chaos":    {[]int{12}, 200, 8 << 10, "netsim"},
}

// IsBenchFigure reports whether BenchCells knows fig.
func IsBenchFigure(fig string) bool {
	_, ok := benchDefaults[fig]
	return ok
}

// BenchCells returns the scenarios that make up a server-bench figure.
// base carries the shared knobs (Transport, Cycles, FileSize, Seed, Files,
// the chaos Faults and Disconnects, the server Label, the trace
// ChromeOut); a zero field takes the figure's default. sessions are the
// session counts, one except for the capacity sweep (nil: the default),
// and procs the capacity figure's GOMAXPROCS curve.
func BenchCells(fig string, base Scenario, sessions, procs []int) ([]Scenario, error) {
	d, ok := benchDefaults[fig]
	if !ok {
		return nil, fmt.Errorf("unknown figure %q", fig)
	}
	if len(sessions) == 0 {
		sessions = d.sessions
	}
	if len(sessions) > 1 && fig != "capacity" {
		return nil, fmt.Errorf("figure %s takes one session count, got %v", fig, sessions)
	}
	base.Sessions = sessions[0]
	if base.Transport == "" {
		base.Transport = d.transport
	}
	if base.Cycles <= 0 {
		base.Cycles = d.cycles
	}
	if base.FileSize <= 0 {
		base.FileSize = d.fileSize
	}
	// Only the chaos figure injects failures.
	faults, disconnects := base.Faults, base.Disconnects
	base.Faults, base.Disconnects = netsim.FaultSpec{}, 0

	switch fig {
	case "server":
		return []Scenario{base}, nil
	case "trace":
		off, on := base, base
		off.Label, on.Label, on.Trace = "trace-off", "trace-all", true
		return []Scenario{off, on}, nil
	case "capacity":
		// Capacity files are small: the footprint of interest is the
		// fixed per-session cost, not the file content.
		var cells []Scenario
		base.Fleet = true
		for _, n := range sessions {
			c := base
			c.Label, c.Sessions = "capacity", n
			cells = append(cells, c)
		}
		if len(procs) == 0 {
			procs = []int{1, 2, 4, 8}
		}
		for _, n := range procs {
			c := base
			c.Label, c.Sessions, c.Procs = "capacity-procs", 1000, n
			cells = append(cells, c)
		}
		return cells, nil
	case "dedup":
		// Input decks across users of one code are near-identical; each
		// user's private tweaks are a few percent. The wire cost of an edit
		// is its dirty chunks, not its bytes: a 2 KB private block dirties
		// the chunks overlapping it (~2x at the default 1 KB average), so
		// the achievable reduction is bounded well below 1/(1-redundancy).
		base.Workload, base.Redundancy = Shared, 0.97
		baseline, chunked := base, base
		baseline.Label = "dedup-baseline"
		chunked.Label, chunked.Chunked = "dedup-chunked", true
		// About two files' worth of cache: far below the working set.
		pressure := chunked
		pressure.Label, pressure.CacheCapacity = "dedup-pressure", int64(2*base.FileSize)
		return []Scenario{baseline, chunked, pressure}, nil
	case "treesync":
		base.Workload, base.Link, base.Virtual = Tree, netsim.ARPANET, true
		if base.Files <= 0 {
			base.Files = 10000
		}
		perFile, tree := base, base
		perFile.Label, perFile.PerFileSync = "treesync-perfile", true
		tree.Label = "treesync-tree"
		return []Scenario{perFile, tree}, nil
	case "cluster":
		var cells []Scenario
		for _, n := range []int{1, 2, 4} {
			c := base
			c.Label, c.Instances, c.JobCPU, c.Virtual = fmt.Sprintf("cluster-%d", n), n, 250*time.Millisecond, true
			cells = append(cells, c)
		}
		return cells, nil
	default: // chaos
		base.Label, base.Faults, base.Disconnects, base.Virtual = "chaos", faults, disconnects, true
		return []Scenario{base}, nil
	}
}
