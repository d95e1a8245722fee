package experiment

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"shadowedit/internal/netsim"
)

// cells builds a figure's scenarios or fails the test.
func cells(t *testing.T, fig string, base Scenario, sessions ...int) []Scenario {
	t.Helper()
	sc, err := BenchCells(fig, base, sessions, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runCells runs every cell and fails the test on the first error.
func runCells(t *testing.T, sc []Scenario) []Row {
	t.Helper()
	var rows []Row
	for _, s := range sc {
		row, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if row.GoMaxProcs <= 0 || row.NumCPU <= 0 {
			t.Fatalf("%s: gomaxprocs %d, num_cpu %d; both must be recorded", row.Label, row.GoMaxProcs, row.NumCPU)
		}
		rows = append(rows, row)
	}
	return rows
}

// TestVirtualPassDeterministic: the netsim virtual-latency replay must be
// byte-identical run over run — that is the whole point of replaying each
// session alone on its own simulated network.
func TestVirtualPassDeterministic(t *testing.T) {
	s := Scenario{Sessions: 2, Cycles: 3, FileSize: 4 * 1024, Transport: "netsim"}.withDefaults()
	a, err := virtualReplay(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := virtualReplay(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != uint64(s.Sessions*s.Cycles) {
		t.Fatalf("virtual replay count = %d, want %d", a.Count, s.Sessions*s.Cycles)
	}
	if a.Count != b.Count || a.Sum != b.Sum || a.Counts != b.Counts {
		t.Fatalf("virtual replay not deterministic:\n  run 1: count=%d sum=%d\n  run 2: count=%d sum=%d",
			a.Count, a.Sum, b.Count, b.Sum)
	}
	if a.Quantile(0.5) <= 0 {
		t.Fatalf("virtual p50 = %v, want > 0 (simulated links have latency)", a.Quantile(0.5))
	}
	// The row carries the replay, and the seeded workload fixes the bytes
	// the concurrent run moves.
	rows := runCells(t, []Scenario{s, s})
	if rows[0].VirtualP50Ms != ms(a.Quantile(0.5)) || rows[0].VirtualP99Ms != ms(a.Quantile(0.99)) {
		t.Fatalf("row virtual percentiles %v/%v, replay %v/%v", rows[0].VirtualP50Ms, rows[0].VirtualP99Ms, ms(a.Quantile(0.5)), ms(a.Quantile(0.99)))
	}
	if rows[0].BytesOnWire != rows[1].BytesOnWire {
		t.Fatalf("seeded wire bytes differ:\n  run 1: %s\n  run 2: %s", rows[0], rows[1])
	}
}

// TestServerBenchNetsimEmitsVirtualPercentiles: a netsim bench run must
// populate the deterministic virtual percentile fields alongside the
// wall-clock ones.
func TestServerBenchNetsimEmitsVirtualPercentiles(t *testing.T) {
	res := runCells(t, cells(t, "server", Scenario{Cycles: 3, FileSize: 4 * 1024, Transport: "netsim"}, 2))[0]
	if res.VirtualP50Ms <= 0 || res.VirtualP90Ms <= 0 || res.VirtualP99Ms <= 0 {
		t.Fatalf("virtual percentiles missing: %s", res)
	}
	if res.VirtualP50Ms > res.VirtualP99Ms {
		t.Fatalf("virtual p50 %v > p99 %v", res.VirtualP50Ms, res.VirtualP99Ms)
	}
	if res.P50Ms <= 0 || res.P90Ms <= 0 || res.P99Ms <= 0 {
		t.Fatalf("wall percentiles missing: %s", res)
	}
	if res.SubmitAckP99Ms <= 0 || res.JobP99Ms <= 0 {
		t.Fatalf("server-side histograms missing: %s", res)
	}
}

// TestChaosSmallGauntlet runs a reduced chaos configuration (the full figure
// runs 12x200); it must complete every cycle with verified output. Sized to
// stay fast under -race.
func TestChaosSmallGauntlet(t *testing.T) {
	res := runCells(t, cells(t, "chaos", Scenario{
		Cycles:   25,
		FileSize: 2 * 1024,
		Seed:     7,
		Faults: netsim.FaultSpec{
			DropRate:   0.05,
			SpikeRate:  0.05,
			SpikeExtra: 20 * time.Millisecond,
			FlapPeriod: 30 * time.Second,
			FlapDown:   200 * time.Millisecond,
		},
		Disconnects: 1,
	}, 4))[0]
	if res.TotalCycles != 4*25 || res.Mismatches != 0 {
		t.Fatalf("chaos run failed acceptance: %s", res)
	}
	if res.Reconnects == 0 {
		t.Fatal("chaos run exercised no reconnects")
	}
	if res.Dropped == 0 {
		t.Fatal("chaos run dropped no frames")
	}
}

// TestChaosZeroFaultsIsClean runs the harness with no injection: nothing
// drops, nothing reconnects beyond the per-session forced bounce.
func TestChaosZeroFaultsIsClean(t *testing.T) {
	res := runCells(t, cells(t, "chaos", Scenario{Cycles: 10, FileSize: 1024, Seed: 3, Disconnects: 1}, 2))[0]
	if res.TotalCycles != 2*10 || res.Mismatches != 0 {
		t.Fatalf("zero-fault chaos failed: %s", res)
	}
	if res.Dropped != 0 || res.Spikes != 0 || res.FlapRejects != 0 {
		t.Fatalf("zero-fault run recorded faults: %s", res)
	}
	// One forced disconnect per session, ridden out.
	if res.Reconnects != int64(res.Sessions) {
		t.Fatalf("reconnects = %d, want %d (one bounce per session)", res.Reconnects, res.Sessions)
	}
}

// TestDedupFigureCells: on a small shared-content workload, chunking cuts
// wire bytes against the whole-file baseline, and the pressure cell's
// capped cache evicts yet repairs every transfer at chunk granularity.
func TestDedupFigureCells(t *testing.T) {
	rows := runCells(t, cells(t, "dedup", Scenario{Cycles: 2, FileSize: 16 * 1024, Transport: "pipe"}, 4))
	baseline, chunked, pressure := rows[0], rows[1], rows[2]
	if chunked.BytesOnWire >= baseline.BytesOnWire {
		t.Fatalf("chunked moved %d bytes, baseline %d: no reduction", chunked.BytesOnWire, baseline.BytesOnWire)
	}
	if chunked.UniqueCacheBytes >= baseline.LogicalCacheBytes {
		t.Fatalf("chunked cache holds %d unique bytes, baseline %d logical: no reduction", chunked.UniqueCacheBytes, baseline.LogicalCacheBytes)
	}
	if pressure.CacheEvictions == 0 {
		t.Fatalf("pressure cell recorded no evictions: %s", pressure)
	}
	if pressure.FullRetransmits != 0 {
		t.Fatalf("pressure cell fell back to %d whole-file retransmits", pressure.FullRetransmits)
	}
}

// TestTreeSyncFigureCells: reconciling a sparsely edited workspace by tree
// walk takes fewer messages, and less virtual time, than announcing every
// file — and both cells agree on what changed.
func TestTreeSyncFigureCells(t *testing.T) {
	rows := runCells(t, cells(t, "treesync", Scenario{Files: 400}))
	perFile, tree := rows[0].TreeExt, rows[1].TreeExt
	if tree.WireMessages >= perFile.WireMessages {
		t.Fatalf("tree sync took %d messages, per-file %d", tree.WireMessages, perFile.WireMessages)
	}
	if tree.SyncVirtualMs >= perFile.SyncVirtualMs {
		t.Fatalf("tree sync took %.1f virtual ms, per-file %.1f", tree.SyncVirtualMs, perFile.SyncVirtualMs)
	}
	if tree.SyncChanged != 4 || perFile.SyncChanged != 4 || tree.SyncRoundTrips == 0 {
		t.Fatalf("announced %d (tree) and %d (per-file) files in %d round trips, want 4 each", tree.SyncChanged, perFile.SyncChanged, tree.SyncRoundTrips)
	}
}

// TestClusterFigureCells: one instance against two; the pair must peer,
// and peer links must carry deltas and manifests, never whole files.
func TestClusterFigureCells(t *testing.T) {
	sc := cells(t, "cluster", Scenario{Cycles: 3}, 4)[:2]
	rows := runCells(t, sc)
	for _, r := range rows {
		if r.ClusterExt == nil || r.PeerFullTransfers != 0 {
			t.Fatalf("%s: full files crossed peer links: %s", r.Label, r)
		}
		if r.CyclesPerSec <= 0 || r.VirtualElapsedSec <= 0 {
			t.Fatalf("%s: no virtual throughput: %s", r.Label, r)
		}
	}
	if rows[0].Instances != 1 || rows[1].Instances != 2 {
		t.Fatalf("instances %d, %d; want 1, 2", rows[0].Instances, rows[1].Instances)
	}
}

// TestCapacityFigureCells: two small fleets record a footprint, and the
// GOMAXPROCS pin lands in the row and is undone afterwards.
func TestCapacityFigureCells(t *testing.T) {
	sc, err := BenchCells("capacity", Scenario{}, []int{4, 16}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sc) != 3 || sc[2].Sessions != 1000 {
		t.Fatalf("capacity cells: %+v", sc)
	}
	sc[2].Sessions = 8
	before := runtime.GOMAXPROCS(0)
	rows := runCells(t, sc)
	if runtime.GOMAXPROCS(0) != before {
		t.Fatalf("GOMAXPROCS left at %d, was %d", runtime.GOMAXPROCS(0), before)
	}
	for _, r := range rows {
		if r.CapacityExt == nil || r.GoroutinesPerSession <= 0 {
			t.Fatalf("%s: no footprint: %s", r.Label, r)
		}
	}
	if rows[2].GoMaxProcs != 1 {
		t.Fatalf("capacity-procs row ran at GOMAXPROCS=%d, want 1", rows[2].GoMaxProcs)
	}
}

// TestCommittedRowsDecode: every row committed in BENCH_server.json decodes
// as a Row and re-encodes to the same keys and values, so committed rows
// keep serving as gate baselines.
func TestCommittedRowsDecode(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_server.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct{ Runs []map[string]any }
	var typed struct{ Runs []Row }
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &typed); err != nil {
		t.Fatal(err)
	}
	for i, row := range typed.Runs {
		enc, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]any
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatal(err)
		}
		for k, v := range raw.Runs[i] {
			if back[k] != v {
				t.Errorf("row %d (%v): %s = %v after a round trip, committed %v", i, raw.Runs[i]["label"], k, back[k], v)
			}
		}
	}
}
