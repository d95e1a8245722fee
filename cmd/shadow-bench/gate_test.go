package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shadowedit/internal/experiment"
)

// The bounds below are written out, not derived from gate.go's constants:
// a change that loosens a gate must fail this test.

func dedupRows(baseWire, chunkedWire, baseLogical, chunkedUnique int64, chunkedAllocs float64) []experiment.Row {
	return []experiment.Row{
		{Label: "dedup-baseline", BytesOnWire: baseWire, LogicalCacheBytes: baseLogical, DedupExt: &experiment.DedupExt{}},
		{Label: "dedup-chunked", BytesOnWire: chunkedWire, UniqueCacheBytes: chunkedUnique, AllocsPerCycle: chunkedAllocs, DedupExt: &experiment.DedupExt{Chunked: true}},
		{Label: "dedup-pressure", CacheEvictions: 1, DedupExt: &experiment.DedupExt{Chunked: true}},
	}
}

func treeRows(perMsgs, treeMsgs int64, perMs, treeMs float64, trips int) []experiment.Row {
	return []experiment.Row{
		{Label: "treesync-perfile", TreeExt: &experiment.TreeExt{WireMessages: perMsgs, SyncVirtualMs: perMs}},
		{Label: "treesync-tree", TreeExt: &experiment.TreeExt{WireMessages: treeMsgs, SyncVirtualMs: treeMs, SyncRoundTrips: trips}},
	}
}

func clusterRows(oneCPS, fourCPS float64, forwards, fulls int64) []experiment.Row {
	var rows []experiment.Row
	for i, n := range []int{1, 2, 4} {
		cps := []float64{oneCPS, oneCPS, fourCPS}[i]
		rows = append(rows, experiment.Row{
			Label:        "cluster-" + string(rune('0'+n)),
			CyclesPerSec: cps,
			ClusterExt:   &experiment.ClusterExt{Instances: n, PeerForwards: forwards, PeerFullTransfers: fulls},
		})
	}
	return rows
}

func serverRow(transport string, allocs float64) experiment.Row {
	return experiment.Row{Transport: transport, Sessions: 8, CyclesPerSess: 500, P90Ms: 1, SubmitAckP99Ms: 1, VirtualP50Ms: 1, AllocsPerCycle: allocs}
}

// clusterzDoc renders a /clusterz.json document for members super1..3.
func clusterzDoc(healthy int, ring string, fleetDelta int) string {
	h := func(i int) string {
		if i < healthy {
			return "true"
		}
		return "false"
	}
	return `{"members":[
		{"member":"super1","healthy":` + h(0) + `,"counters":{"DeltaBytes":10}},
		{"member":"super2","healthy":` + h(1) + `,"counters":{"DeltaBytes":20}},
		{"member":"super3","healthy":` + h(2) + `,"counters":{"DeltaBytes":30}}],
		"ring":{"members":[` + ring + `]},
		"fleet":{"members":3,"healthy":` + string(rune('0'+healthy)) + `,"counters":{"DeltaBytes":` + string(rune('0'+fleetDelta)) + `0}}}`
}

func TestGateBounds(t *testing.T) {
	dir := t.TempDir()
	chrome := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	withEvents, noEvents := chrome("events.json", `{"traceEvents":[{"name":"x"}]}`), chrome("empty.json", `{"traceEvents":[]}`)
	ring := `"super2","super1","super3"`
	// 100 allocs/cycle committed: the limit is 115.
	committed := append(dedupRows(10000, 1000, 10000, 1000, 100),
		experiment.Row{Label: "alloc-purge", Transport: "tcp", Sessions: 8, CyclesPerSess: 500, AllocsPerCycle: 100})
	rows := func(r ...experiment.Row) gateIn { return gateIn{rows: r, committed: committed} }
	pressure := func(baseWire, chunkedWire, evictions, fulls int64) gateIn {
		in := gateIn{rows: dedupRows(baseWire, chunkedWire, 1, 1, 0)}
		in.rows[2].CacheEvictions, in.rows[2].FullRetransmits = evictions, fulls
		return in
	}
	dedup := func(baseWire, baseLogical int64, allocs float64) gateIn {
		return gateIn{rows: dedupRows(baseWire, 100, baseLogical, 100, allocs), committed: committed}
	}

	cases := []struct {
		gate   string
		inside gateIn
		past   []gateIn
	}{
		{"latency percentiles recorded", rows(serverRow("netsim", 0)), []gateIn{
			rows(experiment.Row{Transport: "netsim", P90Ms: 1, SubmitAckP99Ms: 1}),
			rows(experiment.Row{Transport: "tcp", SubmitAckP99Ms: 1}),
		}},
		{"tcp 8x500 allocs/cycle", rows(serverRow("tcp", 114.9)), []gateIn{
			rows(serverRow("tcp", 115.1)),
			{rows: []experiment.Row{serverRow("tcp", 1)}},
		}},
		{"chunks cut wire bytes and repair evictions", pressure(1000, 1000, 1, 0), []gateIn{
			pressure(1000, 1000, 0, 0),
			pressure(1000, 1000, 1, 1),
			pressure(1000, 1001, 1, 0),
		}},
		// Committed reductions are 10x: the floor is 8.5x.
		{"reductions and allocs vs committed", dedup(851, 851, 114.9), []gateIn{
			dedup(849, 851, 114.9),
			dedup(851, 849, 114.9),
			dedup(851, 851, 115.1),
		}},
		{"tree walk cuts messages, time and round trips", gateIn{rows: treeRows(1000, 100, 2, 1, 6)}, []gateIn{
			{rows: treeRows(999, 100, 2, 1, 6)},
			{rows: treeRows(1000, 100, 2, 1, 7)},
			{rows: treeRows(1000, 100, 1, 1, 6)},
		}},
		{"footprint recorded", rows(experiment.Row{CapacityExt: &experiment.CapacityExt{GoroutinesPerSession: 0.01}}), []gateIn{
			rows(experiment.Row{CapacityExt: &experiment.CapacityExt{}}),
		}},
		{"rows and Chrome trace written", gateIn{rows: []experiment.Row{{Label: "trace-off"}, {Label: "trace-all"}}, chromeOut: withEvents}, []gateIn{
			{rows: []experiment.Row{{Label: "trace-off"}, {Label: "trace-all"}}, chromeOut: noEvents},
			{rows: []experiment.Row{{Label: "trace-off"}}, chromeOut: withEvents},
		}},
		{"no full files between peers", gateIn{rows: clusterRows(10, 17, 1, 0)}, []gateIn{
			{rows: clusterRows(10, 17, 1, 1)},
		}},
		{"peering and scaling", gateIn{rows: clusterRows(10, 17.01, 1, 0)}, []gateIn{
			{rows: clusterRows(10, 16.99, 1, 0)},
			{rows: clusterRows(10, 17.01, 0, 0)},
		}},
		{"every cycle verified", rows(experiment.Row{Sessions: 2, CyclesPerSess: 3, TotalCycles: 6, ChaosExt: &experiment.ChaosExt{}}), []gateIn{
			rows(experiment.Row{Sessions: 2, CyclesPerSess: 3, TotalCycles: 6, ChaosExt: &experiment.ChaosExt{Mismatches: 1}}),
			rows(experiment.Row{Sessions: 2, CyclesPerSess: 3, TotalCycles: 5, ChaosExt: &experiment.ChaosExt{}}),
		}},
		{"fleet view consistent", gateIn{clusterz: strings.NewReader(clusterzDoc(3, ring, 6))}, []gateIn{
			{clusterz: strings.NewReader(clusterzDoc(2, ring, 6))},
			{clusterz: strings.NewReader(clusterzDoc(3, `"super1","super2"`, 6))},
			{clusterz: strings.NewReader(clusterzDoc(3, ring, 5))},
		}},
	}

	tested := map[string]bool{}
	for _, c := range cases {
		var g *gate
		for i := range gates {
			if gates[i].name == c.gate {
				g = &gates[i]
			}
		}
		if g == nil {
			t.Fatalf("no gate named %q", c.gate)
		}
		tested[c.gate] = true
		if err := g.check(c.inside); err != nil {
			t.Errorf("%s: input inside the bound failed: %v", c.gate, err)
		}
		for i, in := range c.past {
			if err := g.check(in); err == nil {
				t.Errorf("%s: input %d past the bound passed", c.gate, i)
			}
		}
	}
	for _, g := range gates {
		if !tested[g.name] {
			t.Errorf("gate %s/%q has no bound test", g.fig, g.name)
		}
	}
}

// TestCheckGatesSelectsByFigureAndMode: without -gate only a figure's
// always-on gates run; with it, every gate of that figure runs.
func TestCheckGatesSelectsByFigureAndMode(t *testing.T) {
	// No committed baselines: the always-on pressure gate passes, the
	// relative one cannot.
	dedup := gateIn{rows: dedupRows(1000, 100, 1000, 100, 1)}
	if err := checkGates(io.Discard, "dedup", dedup, false); err != nil {
		t.Fatalf("always-on dedup gates: %v", err)
	}
	if err := checkGates(io.Discard, "dedup", dedup, true); err == nil {
		t.Fatal("-gate dedup passed without committed rows")
	}
	if err := checkGates(io.Discard, "capacity", dedup, false); err != nil {
		t.Fatalf("capacity has no always-on gate, got %v", err)
	}
}
