package experiment

import (
	"bytes"
	"strings"
	"testing"

	"shadowedit/internal/netsim"
	"shadowedit/internal/workload"

	shadow "shadowedit"
)

// fastCfg uses the LAN link so unit tests of the harness run instantly;
// figure regeneration uses the real specs in benches and cmd/shadow-bench.
func fastCfg() Config {
	return Config{Link: netsim.ARPANET, Seed: 42}
}

func TestRunCycleShapes(t *testing.T) {
	cell, err := RunCycle(fastCfg(), 50*1024, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cell.STime <= 0 || cell.ETime <= 0 {
		t.Fatalf("non-positive times: %+v", cell)
	}
	if cell.STime >= cell.ETime {
		t.Fatalf("shadow (%v) not faster than batch (%v) at 5%%", cell.STime, cell.ETime)
	}
	if cell.ShadowBytes >= cell.BatchBytes {
		t.Fatalf("shadow moved %d bytes, batch %d; delta should be smaller", cell.ShadowBytes, cell.BatchBytes)
	}
	if cell.Speedup() < 2 {
		t.Fatalf("speedup %.2f too low at 5%% modified", cell.Speedup())
	}
}

func TestSpeedupDecreasesWithPercent(t *testing.T) {
	cfg := fastCfg()
	var prev float64 = 1e9
	for _, p := range []float64{1, 10, 40} {
		cell, err := RunCycle(cfg, 100*1024, p)
		if err != nil {
			t.Fatal(err)
		}
		sp := cell.Speedup()
		if sp >= prev {
			t.Fatalf("speedup did not decrease: %.1f at %g%% (prev %.1f)", sp, p, prev)
		}
		prev = sp
	}
}

func TestSpeedupGrowsWithFileSizeAtOnePercent(t *testing.T) {
	// The paper's Figure 3 trend: 13.5 (10k) -> 24.9 (500k) at 1%.
	cfg := fastCfg()
	small, err := RunCycle(cfg, 10*1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunCycle(cfg, 200*1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if large.Speedup() <= small.Speedup() {
		t.Fatalf("speedup did not grow with size: %.1f (10k) vs %.1f (200k)",
			small.Speedup(), large.Speedup())
	}
}

func TestTransferFigureRenders(t *testing.T) {
	fig, err := RunTransferFigure(fastCfg(), "Test figure", []int{20 * 1024}, []float64{1, 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Test figure", "20k", "1%", "20%", "E-time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// S-time at 20% must exceed S-time at 1% within the series, and
	// E-time must exceed both.
	s := fig.Sizes[0]
	if s.Points[1].STime <= s.Points[0].STime {
		t.Fatal("S-time not increasing with % modified")
	}
	if s.ETime <= s.Points[1].STime {
		t.Fatal("E-time not above S-times at 20%")
	}
}

func TestSpeedupTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 3 grid is slow")
	}
	table, err := RunSpeedupTable(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	table.Render(&buf)
	out := buf.String()
	for _, want := range []string{"10k", "500k", "1% modified", "20% modified", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Shape checks against the paper, generously banded: every cell must
	// show a clear win, 1% cells a large one, 20% cells a moderate one.
	for _, cell := range table.Cells {
		sp := cell.Speedup()
		if sp < 1.5 {
			t.Errorf("size %d %% %g: speedup %.2f shows no win", cell.Size, cell.Percent, sp)
		}
		if cell.Percent == 1 && sp < 5 {
			t.Errorf("size %d at 1%%: speedup %.2f, paper reports 13.5-24.9", cell.Size, sp)
		}
		if cell.Percent == 20 && sp > 30 {
			t.Errorf("size %d at 20%%: speedup %.2f implausibly high, paper reports ~4", cell.Size, sp)
		}
	}
}

func TestReverseShadowExperiment(t *testing.T) {
	res, err := RunReverseShadow(Config{Link: netsim.LAN, Seed: 7}, 20*1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Savings() < 2 {
		t.Fatalf("reverse shadowing saved only %.1fx", res.Savings())
	}
	var buf bytes.Buffer
	RenderReverseShadow(&buf, res)
	if !strings.Contains(buf.String(), "reduction") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestAlgorithmComparison(t *testing.T) {
	cells, err := RunAlgorithmComparison(Config{Seed: 9}, 50*1024, []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(cells))
	}
	for _, c := range cells {
		if c.WireBytes <= 0 {
			t.Fatalf("empty delta for %v at %g%%", c.Algorithm, c.Percent)
		}
	}
	var buf bytes.Buffer
	RenderAlgorithmComparison(&buf, 50*1024, cells)
	if !strings.Contains(buf.String(), "tichy") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestCompressionAblation(t *testing.T) {
	cells, err := RunCompressionAblation(fastCfg(), []int{30 * 1024}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("cells = %d", len(cells))
	}
	c := cells[0]
	if c.ZBytes >= c.PlainBytes {
		t.Fatalf("compression did not shrink transfer: %d vs %d", c.ZBytes, c.PlainBytes)
	}
	var buf bytes.Buffer
	RenderCompressionAblation(&buf, 5, cells)
	if !strings.Contains(buf.String(), "flate") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestCacheSweep(t *testing.T) {
	// 4 files x 8K: unbounded capacity keeps deltas; a 8K cache (room
	// for ~1 file) forces mostly full retransmits.
	cells, err := RunCacheSweep(Config{Link: netsim.LAN, Seed: 11}, 8*1024, 4,
		[]int64{0, 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	unbounded, tiny := cells[0], cells[1]
	if tiny.FullBytes <= unbounded.FullBytes {
		t.Fatalf("tiny cache (%d full bytes) not worse than unbounded (%d)",
			tiny.FullBytes, unbounded.FullBytes)
	}
	if tiny.Evictions == 0 {
		t.Fatal("tiny cache evicted nothing")
	}
	var buf bytes.Buffer
	RenderCacheSweep(&buf, 8*1024, 4, cells)
	if !strings.Contains(buf.String(), "unbounded") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestFlowControlAblation(t *testing.T) {
	results, err := RunFlowControl(Config{Link: netsim.LAN, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byPolicy := make(map[shadow.PullPolicy]FlowControlResult)
	for _, r := range results {
		byPolicy[r.Policy] = r
		if !r.Completed {
			t.Fatalf("%v: follow-up job failed — deferral lost updates", r.Policy)
		}
	}
	// Eager pulls during the busy period; load-aware and lazy defer.
	if eager := byPolicy[shadow.PullEager]; eager.PulledDuringBusy < 4 || eager.DeferredDuringBusy != 0 {
		t.Errorf("eager = %+v, want >=4 pulls and 0 deferrals during busy", eager)
	}
	if la := byPolicy[shadow.PullLoadAware]; la.DeferredDuringBusy != 4 {
		t.Errorf("load-aware = %+v, want 4 deferrals during busy", la)
	}
	if lazy := byPolicy[shadow.PullLazy]; lazy.DeferredDuringBusy != 4 || lazy.PulledDuringBusy != 0 {
		t.Errorf("lazy = %+v, want 4 deferrals and 0 pulls during busy", lazy)
	}
	var buf bytes.Buffer
	RenderFlowControl(&buf, results)
	for _, want := range []string{"eager", "lazy", "load-aware"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Link.BitsPerSecond != netsim.ARPANET.BitsPerSecond {
		t.Error("default link not ARPANET")
	}
	if cfg.Algorithm == 0 || cfg.EditKind == 0 || cfg.Seed == 0 {
		t.Errorf("defaults missing: %+v", cfg)
	}
	if cfg.EditKind != workload.EditMixed {
		t.Error("default edit kind not mixed")
	}
}

func TestLoadSweep(t *testing.T) {
	// With each client's jobs strictly sequential (submit -> wait), the
	// concurrency across clients is what the worker pool bounds. One
	// worker serializes everything; four workers let the four clients
	// proceed in parallel.
	cells, err := RunLoadSweep(Config{Link: netsim.LAN, Seed: 3}, 4, 3, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	// A failed job fails RunLoadSweep itself.
	for _, c := range cells {
		if c.Jobs != 12 {
			t.Fatalf("workers=%d: jobs=%d", c.Workers, c.Jobs)
		}
	}
	serial, parallel := cells[0], cells[1]
	// 12 jobs x 40ms on one worker is >= 480ms; on four workers each
	// client's stream of 3 jobs runs concurrently, ~120ms. Use a loose
	// factor to stay robust on slow machines.
	if parallel.Makespan*2 >= serial.Makespan {
		t.Fatalf("no speedup from workers: serial %v vs parallel %v",
			serial.Makespan, parallel.Makespan)
	}
	var buf bytes.Buffer
	RenderLoadSweep(&buf, cells)
	if !strings.Contains(buf.String(), "jobs/sec") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestCachePolicyComparison(t *testing.T) {
	// Capacity fits the small files plus change, but not everything.
	cells, err := RunCachePolicyComparison(Config{Link: netsim.LAN, Seed: 19}, 20*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	byPolicy := make(map[shadow.CachePolicy]PolicyCell)
	for _, c := range cells {
		byPolicy[c.Policy] = c
		if c.Evictions == 0 && c.FullBytes == 0 {
			t.Fatalf("%v: constrained cache saw no pressure: %+v", c.Policy, c)
		}
	}
	lf := byPolicy[shadow.CacheLargestFirst]
	// Largest-first keeps the small files resident: their resubmissions
	// are deltas, so it moves strictly more delta bytes than... actually
	// the discriminating signal is that it must produce SOME deltas (the
	// small files survive), where a pathological policy could produce
	// none.
	if lf.DeltaBytes == 0 {
		t.Fatalf("largest-first produced no deltas: %+v", lf)
	}
	var buf bytes.Buffer
	RenderCachePolicyComparison(&buf, 20*1024, cells)
	if !strings.Contains(buf.String(), "largest-first") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestBackgroundOverlap(t *testing.T) {
	// §5.1: with edit-time notifications, the delta transfers hide
	// behind the user's editing pauses, so the warm submit is much
	// faster than the cold one on a slow link.
	res, err := RunBackgroundOverlap(Config{Link: netsim.Cypress, Seed: 23}, 60*1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmSubmit >= res.ColdSubmit {
		t.Fatalf("no overlap benefit: warm %v vs cold %v", res.WarmSubmit, res.ColdSubmit)
	}
	if res.Overlap() < 0.5 {
		t.Fatalf("only %.0f%% of transfer hidden, want most of it (warm %v, cold %v)",
			res.Overlap()*100, res.WarmSubmit, res.ColdSubmit)
	}
	var buf bytes.Buffer
	RenderOverlap(&buf, []OverlapResult{res})
	if !strings.Contains(buf.String(), "hidden") {
		t.Fatalf("render:\n%s", buf.String())
	}
}
