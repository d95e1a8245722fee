// Command shadow-bench regenerates the paper's evaluation (§8.1) and the
// extension experiments (§8.3) as printed tables and series.
//
// Usage:
//
//	shadow-bench -fig 1          Figure 1: Cypress transfer times
//	shadow-bench -fig 2          Figure 2: ARPANET transfer times
//	shadow-bench -fig 3          Figure 3: speedup factors vs the paper
//	shadow-bench -fig reverse    Reverse shadow processing (output deltas)
//	shadow-bench -fig algorithms Delta algorithm comparison
//	shadow-bench -fig compress   Compression ablation
//	shadow-bench -fig flow       Flow-control (pull policy) ablation
//	shadow-bench -fig cache      Cache-size ablation
//	shadow-bench -fig load       Multi-client throughput vs job slots
//	shadow-bench -fig overlap    Background transfer hidden behind editing
//	shadow-bench -fig all        Everything above
//
// Times are virtual seconds on the simulated link (9600 bps Cypress,
// 56 kbps ARPANET); wall-clock runtime is a few seconds for everything.
//
// The server benchmarks drive the real concurrent server instead, through
// the scenario driver in internal/experiment, and append one row per cell
// to BENCH_server.json (-bench-out):
//
//	shadow-bench -fig server     Multi-session server throughput (wall clock)
//	shadow-bench -fig trace      Tracing overhead: the server cell, off vs on
//	shadow-bench -fig capacity   Session capacity (100..10k sessions, GOMAXPROCS curve)
//	shadow-bench -fig dedup      Chunk dedup: baseline vs chunked vs cache pressure
//	shadow-bench -fig treesync   Workspace reconciliation: per-file vs Merkle tree walk
//	shadow-bench -fig cluster    Shadow-cache cluster scaling (1/2/4 instances, virtual time)
//	shadow-bench -fig chaos      Fault-injection gauntlet (drops/spikes/flaps/disconnects)
//
// -sessions, -cycles, -filesize and -transport default to each figure's
// own values. -gate checks the run against its CI regression gates
// (gate.go), with the rows committed in BENCH_server.json as baselines;
// -gate -fig clusterz checks a shadowd /clusterz.json document read from
// standard input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"shadowedit/internal/experiment"
	"shadowedit/internal/netsim"
	"shadowedit/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "shadow-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("shadow-bench", flag.ContinueOnError)
	var (
		fig  = fs.String("fig", "all", "which figure/experiment to regenerate")
		seed = fs.Int64("seed", 1987, "workload seed")
		plot = fs.Bool("plot", false, "draw Figures 1-2 as ASCII plots like the paper")

		sessions  = fs.String("sessions", "", "server benches: concurrent sessions; capacity takes a comma-separated sweep (default: the figure's)")
		cycles    = fs.Int("cycles", 0, "server benches: measured cycles per session (0: the figure's default)")
		fileSize  = fs.Int("filesize", 0, "server benches: data file size in bytes (0: the figure's default)")
		transport = fs.String("transport", "", "server benches: tcp, pipe or netsim (default: the figure's)")
		benchOut  = fs.String("bench-out", "BENCH_server.json", "server benches: JSON results file (appended; empty to skip)")
		label     = fs.String("label", "", "server figure: label recorded with the run")
		chromeOut = fs.String("chrome-out", "", "trace figure: write the slowest trace as Chrome trace-event JSON to this path")
		gate      = fs.Bool("gate", false, "server benches: fail unless the run passes its CI regression gates")
		capProcs  = fs.String("cap-procs", "1,2,4,8", "capacity figure: comma-separated GOMAXPROCS values")
		treeFiles = fs.Int("tree-files", 10000, "treesync figure: workspace size in files")

		dropRate   = fs.Float64("drop", 0.05, "chaos figure: per-frame drop probability")
		spikeRate  = fs.Float64("spike", 0.05, "chaos figure: per-frame latency-spike probability")
		spikeExtra = fs.Duration("spike-extra", 20*time.Millisecond, "chaos figure: added latency per spike")
		flapPeriod = fs.Duration("flap-period", 30*time.Second, "chaos figure: virtual-time flap cycle (0 disables)")
		flapDown   = fs.Duration("flap-down", 200*time.Millisecond, "chaos figure: outage window per flap cycle")
		bounces    = fs.Int("disconnects", 1, "chaos figure: forced disconnects per session")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := &runner{w: w, seed: *seed, plot: *plot, benchOut: *benchOut, chromeOut: *chromeOut, gate: *gate}
	if *fig == "clusterz" {
		if !r.gate {
			return fmt.Errorf("-fig clusterz only checks a /clusterz.json document; it needs -gate")
		}
		return checkGates(w, "clusterz", gateIn{clusterz: os.Stdin}, true)
	}
	if experiment.IsBenchFigure(*fig) {
		base := experiment.Scenario{
			Label:     *label,
			Transport: *transport,
			Cycles:    *cycles,
			FileSize:  *fileSize,
			Seed:      *seed,
			Files:     *treeFiles,
			Faults: netsim.FaultSpec{
				DropRate:   *dropRate,
				SpikeRate:  *spikeRate,
				SpikeExtra: *spikeExtra,
				FlapPeriod: *flapPeriod,
				FlapDown:   *flapDown,
			},
			Disconnects: *bounces,
			ChromeOut:   *chromeOut,
		}
		var counts []int
		var err error
		if *sessions != "" {
			if counts, err = parseIntList(*sessions); err != nil {
				return fmt.Errorf("-sessions: %w", err)
			}
		}
		procs, err := parseIntList(*capProcs)
		if err != nil {
			return fmt.Errorf("-cap-procs: %w", err)
		}
		cells, err := experiment.BenchCells(*fig, base, counts, procs)
		if err != nil {
			return err
		}
		return r.bench(*fig, cells)
	}
	for _, f := range paperFigures {
		switch *fig {
		case "all":
			if err := f.run(r); err != nil {
				return err
			}
			fmt.Fprintln(w)
		case f.name:
			return f.run(r)
		}
	}
	if *fig != "all" {
		return fmt.Errorf("unknown figure %q", *fig)
	}
	return nil
}

// paperFigures are the simulator figures, in -fig all order.
var paperFigures = []struct {
	name string
	run  func(*runner) error
}{
	{"1", func(r *runner) error {
		return r.transfer(netsim.Cypress, "Figure 1: Cypress Transfer Times (100k/200k/500k file sizes)")
	}},
	{"2", func(r *runner) error {
		return r.transfer(netsim.ARPANET, "Figure 2: ARPANET Transfer Times to Univ Ill. (100k/200k/500k file sizes)")
	}},
	{"3", (*runner).figure3},
	{"reverse", (*runner).reverse},
	{"algorithms", (*runner).algorithms},
	{"compress", (*runner).compress},
	{"flow", (*runner).flow},
	{"cache", (*runner).cache},
	{"load", (*runner).load},
	{"overlap", (*runner).overlap},
}

type runner struct {
	w         io.Writer
	seed      int64
	plot      bool
	benchOut  string
	chromeOut string
	gate      bool
}

func (r *runner) cfg(link netsim.Spec) experiment.Config {
	return experiment.Config{Link: link, Seed: r.seed}
}

// transfer runs and renders Figure 1 or 2 on the given link.
func (r *runner) transfer(link netsim.Spec, title string) error {
	fig, err := experiment.RunTransferFigure(r.cfg(link), title, workload.FigureSizes, workload.SweepPercents)
	if err != nil {
		return err
	}
	fig.Render(r.w)
	if r.plot {
		fig.RenderPlot(r.w, 72, 22)
	}
	return nil
}

func (r *runner) figure3() error {
	table, err := experiment.RunSpeedupTable(r.cfg(netsim.ARPANET))
	if err != nil {
		return err
	}
	table.Render(r.w)
	return nil
}

func (r *runner) reverse() error {
	res, err := experiment.RunReverseShadow(r.cfg(netsim.ARPANET), 50*1024, 4)
	if err != nil {
		return err
	}
	experiment.RenderReverseShadow(r.w, res)
	return nil
}

func (r *runner) algorithms() error {
	const size = 100 * 1024
	cells, err := experiment.RunAlgorithmComparison(r.cfg(netsim.ARPANET), size,
		[]float64{1, 5, 10, 20, 40, 80})
	if err != nil {
		return err
	}
	experiment.RenderAlgorithmComparison(r.w, size, cells)
	return nil
}

func (r *runner) compress() error {
	cells, err := experiment.RunCompressionAblation(r.cfg(netsim.ARPANET), workload.TableSizes, 5)
	if err != nil {
		return err
	}
	experiment.RenderCompressionAblation(r.w, 5, cells)
	return nil
}

func (r *runner) flow() error {
	results, err := experiment.RunFlowControl(r.cfg(netsim.LAN))
	if err != nil {
		return err
	}
	experiment.RenderFlowControl(r.w, results)
	return nil
}

func (r *runner) load() error {
	cells, err := experiment.RunLoadSweep(r.cfg(netsim.LAN), 4, 4, []int{1, 2, 4, 8})
	if err != nil {
		return err
	}
	experiment.RenderLoadSweep(r.w, cells)
	return nil
}

func (r *runner) overlap() error {
	var results []experiment.OverlapResult
	for _, size := range []int{50 * 1024, 100 * 1024} {
		res, err := experiment.RunBackgroundOverlap(r.cfg(netsim.Cypress), size)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	experiment.RenderOverlap(r.w, results)
	return nil
}

func (r *runner) cache() error {
	const fileSize, files = 16 * 1024, 4
	cells, err := experiment.RunCacheSweep(r.cfg(netsim.LAN), fileSize, files,
		[]int64{0, 256 * 1024, 64 * 1024, 32 * 1024, 16 * 1024})
	if err != nil {
		return err
	}
	experiment.RenderCacheSweep(r.w, fileSize, files, cells)
	fmt.Fprintln(r.w)
	policies, err := experiment.RunCachePolicyComparison(r.cfg(netsim.LAN), 20*1024)
	if err != nil {
		return err
	}
	experiment.RenderCachePolicyComparison(r.w, 20*1024, policies)
	return nil
}

// bench runs a server-bench figure cell by cell, printing each row as it
// lands, then the figure's headline, then its gates, and appends the rows
// to the trajectory file.
func (r *runner) bench(fig string, cells []experiment.Scenario) error {
	var err error
	// Baselines are read before this run appends to the same file.
	var committed []experiment.Row
	if r.gate {
		if committed, err = readRows(baselineFile); err != nil {
			return fmt.Errorf("read baselines: %w", err)
		}
	}
	var rows []experiment.Row
	for _, c := range cells {
		row, err := experiment.Run(c)
		if err != nil {
			return err
		}
		fmt.Fprintln(r.w, row)
		rows = append(rows, row)
	}
	summarize(r.w, fig, rows, r.chromeOut)
	if err := checkGates(r.w, fig, gateIn{rows: rows, committed: committed, chromeOut: r.chromeOut}, r.gate); err != nil {
		return err
	}
	if r.benchOut == "" {
		return nil
	}
	if err := appendRows(r.benchOut, rows); err != nil {
		return fmt.Errorf("write %s: %w", r.benchOut, err)
	}
	fmt.Fprintf(r.w, "recorded in %s\n", r.benchOut)
	return nil
}

// summarize prints a figure's headline numbers.
func summarize(w io.Writer, fig string, rows []experiment.Row, chromeOut string) {
	switch fig {
	case "trace":
		off, on := rows[0].CyclesPerSec, rows[1].CyclesPerSec
		fmt.Fprintf(w, "tracing overhead: %.1f%% throughput (%.1f -> %.1f cycles/sec)\n", 100*(off-on)/off, off, on)
		if chromeOut != "" {
			fmt.Fprintf(w, "slowest trace exported to %s\n", chromeOut)
		}
	case "dedup":
		fmt.Fprintf(w, "wire reduction vs whole-file baseline: %.1fx\n", wireReduction(rows))
		fmt.Fprintf(w, "cache reduction (logical baseline vs unique chunked): %.1fx\n", cacheReduction(rows))
	case "treesync":
		per, tree := rows[0].TreeExt, rows[1].TreeExt
		fmt.Fprintf(w, "message reduction vs per-file: %.1fx\n", ratio(float64(per.WireMessages), float64(tree.WireMessages)))
		fmt.Fprintf(w, "time reduction vs per-file: %.1fx\n", ratio(per.SyncVirtualMs, tree.SyncVirtualMs))
	case "cluster":
		fmt.Fprintf(w, "scaling: %.2fx cycles/sec at %d instances vs 1\n", clusterScaling(rows), rows[len(rows)-1].Instances)
	}
}

// benchFile is the BENCH_server.json layout: rows appended run by run.
type benchFile struct {
	Runs []experiment.Row `json:"runs"`
}

// readRows loads a trajectory file's rows; a missing file has none.
func readRows(path string) ([]experiment.Row, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file.Runs, nil
}

func appendRows(path string, rows []experiment.Row) error {
	old, _ := readRows(path) // a corrupt file starts fresh
	data, err := json.MarshalIndent(benchFile{Runs: append(old, rows...)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseIntList parses "100,1000,5000" into ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
