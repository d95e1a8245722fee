// Regression gates for the server-bench figures. A gate checks one
// figure's rows. Gates marked always are invariants the figure enforces on
// every run; the rest run under -gate, which CI passes to every bench
// invocation. Relative gates compare against the rows committed in
// BENCH_server.json. gate_test.go pins every bound: a change that loosens
// one fails it.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"shadowedit/internal/experiment"
	"shadowedit/internal/metrics"
)

// baselineFile holds the committed rows relative gates compare against.
const baselineFile = "BENCH_server.json"

const (
	// allocSlack is the allocs/cycle headroom over a committed row.
	allocSlack = 1.15
	// dedupFloor is the share of the committed dedup reductions a run must
	// keep. The workload is seeded, so the slack covers only environment
	// noise, not behaviour changes.
	dedupFloor = 0.85
	// The tree walk must cut sync messages at least treeMinReduction-fold
	// against per-file sync, in at most treeMaxRoundTrips exchanges. At the
	// figure's scales (2,000 files in CI, 10,000 by default) it cuts them
	// about 30-fold in 2 round trips.
	treeMinReduction  = 10
	treeMaxRoundTrips = 6
	// clusterMinScaling is the floor on cluster-4 over cluster-1
	// throughput.
	clusterMinScaling = 1.7
)

// clusterzFleet is the fleet the CI /clusterz smoke starts.
var clusterzFleet = []string{"super1", "super2", "super3"}

// gateIn is what a gate may look at.
type gateIn struct {
	rows      []experiment.Row // this run's
	committed []experiment.Row // baselineFile's
	chromeOut string           // the trace figure's export
	clusterz  io.Reader        // a /clusterz.json document
}

type gate struct {
	fig, name string
	always    bool
	check     func(in gateIn) error
}

var gates = []gate{
	{"server", "latency percentiles recorded", false, func(in gateIn) error {
		for _, r := range in.rows {
			if r.P90Ms <= 0 || r.SubmitAckP99Ms <= 0 {
				return fmt.Errorf("%s row has no wall-clock or submit-ack percentiles", r.Transport)
			}
			if r.Transport == "netsim" && r.VirtualP50Ms <= 0 {
				return errors.New("netsim row has no virtual percentiles")
			}
		}
		return nil
	}},
	{"server", "tcp 8x500 allocs/cycle", false, func(in gateIn) error {
		for _, r := range in.rows {
			if r.Transport != "tcp" || r.Sessions != 8 || r.CyclesPerSess != 500 {
				continue
			}
			var base *experiment.Row
			for i, c := range in.committed {
				if c.Transport == "tcp" && c.Sessions == 8 && c.CyclesPerSess == 500 && c.AllocsPerCycle > 0 {
					base = &in.committed[i]
				}
			}
			if base == nil {
				return errors.New("no committed tcp 8x500 row in " + baselineFile)
			}
			if err := atMost("allocs/cycle", r.AllocsPerCycle, base.AllocsPerCycle*allocSlack); err != nil {
				return err
			}
		}
		return nil
	}},
	{"dedup", "chunks cut wire bytes and repair evictions", true, func(in gateIn) error {
		p := find(in.rows, "dedup-pressure")
		switch {
		case p == nil || p.DedupExt == nil:
			return errors.New("no dedup-pressure row")
		case p.FullRetransmits > 0:
			return fmt.Errorf("pressure cell fell back to %d whole-file retransmits", p.FullRetransmits)
		case p.CacheEvictions == 0:
			return fmt.Errorf("pressure cell recorded no evictions — capacity %d did not bind", p.CacheCapacity)
		}
		return atLeast("wire reduction", wireReduction(in.rows), 1)
	}},
	{"dedup", "reductions and allocs vs committed", false, func(in gateIn) error {
		if err := atLeast("wire reduction", wireReduction(in.rows), wireReduction(in.committed)*dedupFloor); err != nil {
			return err
		}
		if err := atLeast("cache reduction", cacheReduction(in.rows), cacheReduction(in.committed)*dedupFloor); err != nil {
			return err
		}
		now, base := find(in.rows, "dedup-chunked"), find(in.committed, "dedup-chunked")
		if now == nil || base == nil {
			return errors.New("no dedup-chunked row in this run or " + baselineFile)
		}
		return atMost("chunked allocs/cycle", now.AllocsPerCycle, base.AllocsPerCycle*allocSlack)
	}},
	{"treesync", "tree walk cuts messages, time and round trips", true, func(in gateIn) error {
		per, tree := find(in.rows, "treesync-perfile"), find(in.rows, "treesync-tree")
		if per == nil || tree == nil || per.TreeExt == nil || tree.TreeExt == nil {
			return errors.New("missing treesync-perfile or treesync-tree row")
		}
		if err := atLeast("message reduction", ratio(float64(per.WireMessages), float64(tree.WireMessages)), treeMinReduction); err != nil {
			return err
		}
		if tree.SyncVirtualMs >= per.SyncVirtualMs {
			return fmt.Errorf("tree sync was not faster (%.1fms vs %.1fms per-file)", tree.SyncVirtualMs, per.SyncVirtualMs)
		}
		return atMost("tree walk round trips", float64(tree.SyncRoundTrips), treeMaxRoundTrips)
	}},
	{"capacity", "footprint recorded", false, func(in gateIn) error {
		for _, r := range in.rows {
			if r.CapacityExt == nil || r.GoroutinesPerSession <= 0 {
				return fmt.Errorf("%d-session cell recorded no goroutines per session", r.Sessions)
			}
		}
		return nil
	}},
	{"trace", "rows and Chrome trace written", false, func(in gateIn) error {
		if find(in.rows, "trace-off") == nil || find(in.rows, "trace-all") == nil {
			return errors.New("missing trace-off or trace-all row")
		}
		data, err := os.ReadFile(in.chromeOut)
		if err != nil {
			return fmt.Errorf("read the -chrome-out trace: %w", err)
		}
		var doc struct{ TraceEvents []json.RawMessage }
		if err := json.Unmarshal(data, &doc); err != nil {
			return err
		}
		if len(doc.TraceEvents) == 0 {
			return errors.New("the exported Chrome trace has no events")
		}
		return nil
	}},
	{"cluster", "no full files between peers", true, func(in gateIn) error {
		for _, r := range in.rows {
			if r.ClusterExt == nil || r.PeerFullTransfers != 0 {
				return fmt.Errorf("%s: full files crossed peer links", r.Label)
			}
		}
		return nil
	}},
	{"cluster", "peering and scaling", false, func(in gateIn) error {
		four := find(in.rows, "cluster-4")
		if find(in.rows, "cluster-2") == nil || four == nil || four.ClusterExt == nil {
			return errors.New("missing cluster-2 or cluster-4 row")
		}
		if four.PeerForwards == 0 {
			return errors.New("cluster-4 recorded no peer forwards")
		}
		return atLeast("cluster-4 scaling", clusterScaling(in.rows), clusterMinScaling)
	}},
	{"chaos", "every cycle verified", true, func(in gateIn) error {
		for _, r := range in.rows {
			if r.ChaosExt == nil || r.Mismatches > 0 || r.TotalCycles != r.Sessions*r.CyclesPerSess {
				return fmt.Errorf("%s", r)
			}
		}
		return nil
	}},
	{"clusterz", "fleet view consistent", false, func(in gateIn) error {
		var doc struct {
			Members []struct {
				Member   string
				Healthy  bool
				Counters metrics.Snapshot
			}
			Ring  struct{ Members []string }
			Fleet struct {
				Members, Healthy int
				Counters         metrics.Snapshot
			}
		}
		if err := json.NewDecoder(in.clusterz).Decode(&doc); err != nil {
			return err
		}
		n := len(clusterzFleet)
		if doc.Fleet.Members != n || doc.Fleet.Healthy != n {
			return fmt.Errorf("fleet %d/%d healthy, want %d/%d", doc.Fleet.Healthy, doc.Fleet.Members, n, n)
		}
		var names []string
		var sum metrics.Snapshot
		for _, m := range doc.Members {
			if !m.Healthy {
				return fmt.Errorf("member %s unhealthy", m.Member)
			}
			names = append(names, m.Member)
			sum = metrics.Merge(sum, m.Counters)
		}
		ring := slices.Clone(doc.Ring.Members)
		slices.Sort(names)
		slices.Sort(ring)
		if !slices.Equal(names, clusterzFleet) || !slices.Equal(ring, clusterzFleet) {
			return fmt.Errorf("members %v, ring %v; want %v", names, ring, clusterzFleet)
		}
		// The merged fleet counters must equal the member sums, field by
		// field.
		if doc.Fleet.Counters != sum {
			return fmt.Errorf("fleet counters %+v != member sums %+v", doc.Fleet.Counters, sum)
		}
		return nil
	}},
}

// checkGates runs fig's gates: the always ones, and with all the rest.
func checkGates(w io.Writer, fig string, in gateIn, all bool) error {
	for _, g := range gates {
		if g.fig != fig || !(g.always || all) {
			continue
		}
		if err := g.check(in); err != nil {
			return fmt.Errorf("%s gate %q: %w", fig, g.name, err)
		}
		if all {
			fmt.Fprintf(w, "gate %s: %s: pass\n", fig, g.name)
		}
	}
	return nil
}

// find returns the last row labelled label, or nil.
func find(rows []experiment.Row, label string) *experiment.Row {
	for i := len(rows) - 1; i >= 0; i-- {
		if rows[i].Label == label {
			return &rows[i]
		}
	}
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireReduction is the dedup headline: whole-file baseline wire bytes per
// chunked wire byte.
func wireReduction(rows []experiment.Row) float64 {
	base, chunked := find(rows, "dedup-baseline"), find(rows, "dedup-chunked")
	if base == nil || chunked == nil {
		return 0
	}
	return ratio(float64(base.BytesOnWire), float64(chunked.BytesOnWire))
}

// cacheReduction compares the baseline's logical cache footprint (what a
// whole-file cache would hold) against the chunked run's unique bytes.
func cacheReduction(rows []experiment.Row) float64 {
	base, chunked := find(rows, "dedup-baseline"), find(rows, "dedup-chunked")
	if base == nil || chunked == nil {
		return 0
	}
	return ratio(float64(base.LogicalCacheBytes), float64(chunked.UniqueCacheBytes))
}

// clusterScaling is cluster-4 throughput over cluster-1.
func clusterScaling(rows []experiment.Row) float64 {
	one, four := find(rows, "cluster-1"), find(rows, "cluster-4")
	if one == nil || four == nil {
		return 0
	}
	return ratio(four.CyclesPerSec, one.CyclesPerSec)
}

func atMost(what string, v, limit float64) error {
	if v > limit {
		return fmt.Errorf("%s %.2f above the %.2f limit", what, v, limit)
	}
	return nil
}

func atLeast(what string, v, floor float64) error {
	if v < floor {
		return fmt.Errorf("%s %.2f below the %.2f floor", what, v, floor)
	}
	return nil
}
