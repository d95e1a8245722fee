// Server benchmark driver. The paper's evaluation (§8.1) is one experiment:
// submit a job with a data file, edit the file, resubmit, and time the
// cycle. The paper figures (figures.go, extensions.go) replay it on the
// simulator; this file runs it against the real concurrent server, with K
// sessions driving closed-loop edit–submit–fetch cycles. It is the one
// place that starts servers, dials, builds client rigs, primes and
// measures. A Scenario names one cell along five axes — transport,
// topology, workload, faults and clock — and yields one Row for
// BENCH_server.json. The server-bench figures are lists of cells
// (benchfigs.go).
package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"shadowedit/internal/client"
	"shadowedit/internal/env"
	"shadowedit/internal/jobs"
	"shadowedit/internal/metrics"
	"shadowedit/internal/naming"
	"shadowedit/internal/netsim"
	"shadowedit/internal/obs"
	"shadowedit/internal/server"
	"shadowedit/internal/trace"
	"shadowedit/internal/wire"
	"shadowedit/internal/workload"
)

// Workload selects what a session does each cycle.
type Workload int

const (
	// Edits: each session rewrites 5% of its own data file, then runs a
	// checksum job over it. EditReplace keeps the file size stationary:
	// EditMixed inserts more than it deletes, so a long run would compound
	// the file and measure growth, not throughput.
	Edits Workload = iota
	// Shared is the cross-user dedup profile: every cycle all sessions
	// submit fresh variants of one common file, sharing ~Redundancy of
	// their bytes block for block (workload.SharedVariant). Successive
	// commons are unrelated, so a session's previous version shares nothing
	// usable with its next — content-addressed chunk dedup is the only
	// redundancy available.
	Shared
	// Tree is workspace reconciliation: each session owns a Files-file
	// monorepo, primed by one Workspace.Sync; a cycle edits 1% of the files
	// and re-syncs. No jobs run.
	Tree
)

// editPercent is the share of a data file each Edits cycle rewrites.
const editPercent = 5

// Scenario is one cell of the server benchmark. Zero fields take the
// defaults noted.
type Scenario struct {
	// Label marks the row in BENCH_server.json.
	Label string
	// Transport is "tcp" (loopback sockets, the default), "pipe"
	// (synchronous net.Pipe streams: no file descriptors, so fleets can
	// grow past RLIMIT_NOFILE) or "netsim" (simulated links).
	Transport string
	// Instances > 0 runs that many servers joined through JoinCluster, each
	// session a ConnectCluster client; 0 runs one unclustered server.
	// Clusters need netsim.
	Instances int
	Workload  Workload
	// Sessions (default 8), Cycles per session (default 50) and FileSize
	// in bytes (default 8 KiB).
	Sessions, Cycles, FileSize int
	// Seed makes the workload and the fault pattern reproducible
	// (default 1987).
	Seed int64
	// Redundancy is the Shared workload's shared fraction; Files the Tree
	// workload's workspace size.
	Redundancy float64
	Files      int
	// PerFileSync makes Tree syncs announce one NOTIFY per file instead of
	// walking the protocol-v4 tree summary.
	PerFileSync bool
	// Chunked opts every client into protocol-v3 chunk transfers.
	Chunked bool
	// CacheCapacity bounds each server's shadow cache in bytes
	// (0 = unbounded).
	CacheCapacity int64
	// JobCPU is compute each job occupies its server for: charged to the
	// server's clock under Virtual (the job language's sleep), spent as
	// wall-clock time otherwise (stall). Slots bounds concurrent jobs per
	// server (default: one per session).
	JobCPU time.Duration
	Slots  int
	// Link is the netsim line between workstations and servers
	// (default LAN).
	Link netsim.Spec
	// Faults is injected on every session's netsim links, seeded per link
	// from Seed; Disconnects forces that many client-side bounces per
	// session, spread evenly over the cycles. Either makes sessions
	// resilient (redialing and retrying) and verifies every job's output
	// against a fault-free local execution.
	Faults      netsim.FaultSpec
	Disconnects int
	// Virtual clocks every party by its netsim host: servers charge job
	// CPU to theirs, clients their compute, and elapsed_sec/cycles_per_sec
	// are the busiest server's virtual time. Otherwise the run is timed on
	// the wall clock, and a netsim run replays each session alone under
	// Virtual for deterministic virtual percentiles.
	Virtual bool
	// Fleet marks a capacity cell: sessions connect and prime through a
	// worker pool, and the row records the per-session footprint. Procs
	// pins GOMAXPROCS for the cell (0 keeps the current value).
	Fleet bool
	Procs int
	// Trace turns on full cycle tracing: the servers and every client
	// share one tracer, so the run measures the worst-case overhead.
	// ChromeOut, with Trace, receives the slowest trace as Chrome
	// trace-event JSON.
	Trace     bool
	ChromeOut string

	// first is the index of the scenario's first session: the virtual
	// replay runs session i alone, under its own names and seed.
	first int
}

func (s Scenario) withDefaults() Scenario {
	if s.Transport == "" {
		s.Transport = "tcp"
	}
	if s.Sessions <= 0 {
		s.Sessions = 8
	}
	if s.Cycles <= 0 {
		s.Cycles = 50
	}
	if s.FileSize <= 0 {
		s.FileSize = 8 * 1024
	}
	if s.Seed == 0 {
		s.Seed = 1987
	}
	if s.Link.BitsPerSecond == 0 {
		s.Link = netsim.LAN
	}
	return s
}

// resilient reports whether sessions must survive injected failures.
func (s Scenario) resilient() bool {
	return s.Faults != (netsim.FaultSpec{}) || s.Disconnects > 0
}

// Row is one scenario's measurements: a core every cell fills, plus the
// extension of the figure the cell belongs to. The JSON keys are those of
// the rows committed in BENCH_server.json, so those rows decode as Rows.
type Row struct {
	Label         string  `json:"label,omitempty"`
	Transport     string  `json:"transport"`
	Sessions      int     `json:"sessions"`
	CyclesPerSess int     `json:"cycles_per_session"`
	TotalCycles   int     `json:"total_cycles"`
	FileSize      int     `json:"file_size_bytes"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	// Wall-clock cycle percentiles.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	// Server-side legs, from the servers' obs histograms (submit→ack and
	// job queue→complete).
	SubmitAckP50Ms float64 `json:"submit_ack_p50_ms"`
	SubmitAckP99Ms float64 `json:"submit_ack_p99_ms"`
	JobP50Ms       float64 `json:"job_p50_ms"`
	JobP99Ms       float64 `json:"job_p99_ms"`
	// Virtual-time cycle percentiles, netsim only. They are byte-identical
	// across repeated runs: see Scenario.Virtual.
	VirtualP50Ms   float64 `json:"p50_virtual_ms,omitempty"`
	VirtualP90Ms   float64 `json:"p90_virtual_ms,omitempty"`
	VirtualP99Ms   float64 `json:"p99_virtual_ms,omitempty"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheEvictions int64   `json:"cache_evictions"`
	PullsIssued    int64   `json:"pulls_issued"`
	PullsDeferred  int64   `json:"pulls_deferred"`
	// BytesOnWire is the client→server file-content payload (deltas,
	// fulls, manifests and chunk data), itemized by the Wire* fields.
	BytesOnWire       int64 `json:"bytes_on_wire,omitempty"`
	WireFullBytes     int64 `json:"wire_full_bytes,omitempty"`
	WireDeltaBytes    int64 `json:"wire_delta_bytes,omitempty"`
	WireManifestBytes int64 `json:"wire_manifest_bytes,omitempty"`
	WireChunkBytes    int64 `json:"wire_chunk_bytes,omitempty"`
	// Cache footprint at the end of the run: unique chunk bytes held,
	// logical bytes a whole-file cache would hold, and their ratio.
	UniqueCacheBytes  int64   `json:"unique_cache_bytes,omitempty"`
	LogicalCacheBytes int64   `json:"logical_cache_bytes,omitempty"`
	DedupRatio        float64 `json:"dedup_ratio,omitempty"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	NumCPU            int     `json:"num_cpu"`

	*CapacityExt
	*DedupExt
	*TreeExt
	*ClusterExt
	*TraceExt
	*ChaosExt
}

// CapacityExt is a Fleet cell's footprint: goroutines and resident heap
// per connected session (client rig plus server session, against a
// pre-connect baseline after a GC), and the wall time to connect and
// prime the fleet.
type CapacityExt struct {
	GoroutinesPerSession float64 `json:"goroutines_per_session"`
	ResidentKBPerSession float64 `json:"resident_kb_per_session"`
	ConnectSec           float64 `json:"connect_sec"`
}

// DedupExt records a chunked or shared-content cell's parameters and how
// its transfers repaired: rehydrations fetched only missing chunks, full
// retransmits degraded to whole-file pulls.
type DedupExt struct {
	Chunked         bool    `json:"chunked,omitempty"`
	Redundancy      float64 `json:"redundancy,omitempty"`
	CacheCapacity   int64   `json:"cache_capacity,omitempty"`
	Rehydrations    int64   `json:"rehydrations"`
	FullRetransmits int64   `json:"full_retransmits"`
}

// TreeExt is the wire cost of a Tree cell's measured syncs, summed over
// sessions and cycles: frames either direction, their payload bytes, the
// synchronous exchanges the tree walk needed (0 per-file) and the syncs'
// virtual time on the link.
type TreeExt struct {
	WireMessages   int64   `json:"wire_messages"`
	SyncWireBytes  int64   `json:"sync_wire_bytes"`
	SyncFiles      int     `json:"sync_files"`
	SyncChanged    int     `json:"sync_changed"`
	SyncRoundTrips int     `json:"sync_round_trips"`
	SyncVirtualMs  float64 `json:"sync_virtual_ms"`
}

// ClusterExt is a cluster cell's peer traffic, summed over instances. Each
// counter is send-side-only at the owner, so summing never double-counts.
// PeerFullTransfers is written even at zero: the peer protocol has no
// full-file frame, and the row records that claim explicitly.
type ClusterExt struct {
	Instances         int     `json:"instances"`
	VirtualElapsedSec float64 `json:"virtual_elapsed_sec"`
	PeerForwards      int64   `json:"peer_forwards"`
	PeerDeltaBytes    int64   `json:"peer_delta_bytes"`
	PeerManifestBytes int64   `json:"peer_manifest_bytes"`
	PeerChunkBytes    int64   `json:"peer_chunk_bytes"`
	PeerBytesSaved    int64   `json:"peer_bytes_saved"`
	PeerNegatives     int64   `json:"peer_negatives"`
	PeerFullTransfers int64   `json:"peer_full_transfers"`
	OwnerMisses       int64   `json:"owner_misses"`
	RingRebalances    int64   `json:"ring_rebalances"`
}

// TraceExt summarizes what a traced cell's shared tracer assembled.
type TraceExt struct {
	Traced         bool  `json:"traced"`
	TraceCompleted int64 `json:"trace_completed"`
	TraceSpans     int64 `json:"trace_spans"`
}

// ChaosExt is a resilient cell's outcome: outputs, the primes' included,
// that differed from the fault-free reference, what the clients did to
// ride out the faults, and the faults the links injected.
type ChaosExt struct {
	Mismatches  int   `json:"mismatches"`
	Reconnects  int64 `json:"reconnects"`
	Retries     int64 `json:"retries"`
	Fallbacks   int64 `json:"fallbacks"`
	Dropped     int64 `json:"dropped"`
	Spikes      int64 `json:"spikes"`
	FlapRejects int64 `json:"flap_rejects"`
}

// String renders the one-line summary the benchmark prints: the core's
// headline numbers, then the extension as JSON.
func (r Row) String() string {
	s := fmt.Sprintf("%s: %s: %d sessions x %d cycles: %.1f cycles/sec (p50 %.2fms, p90 %.2fms, p99 %.2fms, %.0f allocs/cycle; submit-ack p99 %.3fms, job p99 %.2fms; %d wire bytes, %d evictions)",
		r.Label, r.Transport, r.Sessions, r.CyclesPerSess, r.CyclesPerSec, r.P50Ms, r.P90Ms, r.P99Ms, r.AllocsPerCycle,
		r.SubmitAckP99Ms, r.JobP99Ms, r.BytesOnWire, r.CacheEvictions)
	if r.VirtualP99Ms > 0 {
		s += fmt.Sprintf(" [virtual p50 %.2fms, p90 %.2fms, p99 %.2fms]", r.VirtualP50Ms, r.VirtualP90Ms, r.VirtualP99Ms)
	}
	for _, ext := range []any{r.CapacityExt, r.DedupExt, r.TreeExt, r.ClusterExt, r.TraceExt, r.ChaosExt} {
		if b, _ := json.Marshal(ext); string(b) != "null" {
			s += " " + string(b)
		}
	}
	return s
}

// setVirtual fills the virtual percentiles from a latency histogram.
func (r *Row) setVirtual(h *obs.HistogramSnapshot) {
	r.VirtualP50Ms, r.VirtualP90Ms, r.VirtualP99Ms = ms(h.Quantile(0.50)), ms(h.Quantile(0.90)), ms(h.Quantile(0.99))
}

// Run executes one scenario and returns its row.
func Run(s Scenario) (Row, error) {
	s = s.withDefaults()
	switch {
	case s.Transport != "tcp" && s.Transport != "pipe" && s.Transport != "netsim":
		return Row{}, fmt.Errorf("%s: unknown transport %q", s.Label, s.Transport)
	case s.Transport != "netsim" && (s.Virtual || s.Instances > 0 || s.Faults != (netsim.FaultSpec{})):
		return Row{}, fmt.Errorf("%s: virtual clocks, clusters and link faults need the netsim transport", s.Label)
	case s.Instances > 0 && s.resilient():
		return Row{}, fmt.Errorf("%s: faults and disconnects need an unclustered server", s.Label)
	}
	if s.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.Procs))
	}
	b := &bench{s: s}
	row, err := b.run()
	b.close()
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", s.Label, err)
	}
	if s.Transport == "netsim" && !s.Virtual {
		virt, err := virtualReplay(s)
		if err != nil {
			return Row{}, fmt.Errorf("%s: %w", s.Label, err)
		}
		row.setVirtual(&virt)
	}
	return row, nil
}

// virtualReplay returns the virtual cycle latencies of a wall-clock netsim
// scenario. The concurrent run cannot yield reproducible ones: all sessions
// share the server host's clock, so goroutine interleaving shifts which
// arrival advances it. Each session's exact workload is replayed alone on
// its own network instead.
func virtualReplay(s Scenario) (obs.HistogramSnapshot, error) {
	var virt obs.HistogramSnapshot
	for k := 0; k < s.Sessions; k++ {
		one := s
		one.Sessions, one.first, one.Virtual, one.Trace = 1, s.first+k, true, false
		rb := &bench{s: one}
		_, err := rb.run()
		rb.close()
		if err != nil {
			return obs.HistogramSnapshot{}, fmt.Errorf("virtual replay of session %d: %w", one.first, err)
		}
		v := rb.virt.Snapshot()
		virt.Merge(&v)
	}
	return virt, nil
}

// bench is one scenario in flight.
type bench struct {
	s        Scenario
	names    []string       // server names
	hosts    []*netsim.Host // server hosts (netsim)
	ws       []*netsim.Host // session workstations (netsim)
	links    []*netsim.Link // every workstation–server link (netsim)
	dial     func(k, m int) (wire.Conn, error)
	servers  []*server.Server // in name order
	observer []*obs.Observer  // each server's
	tracer   *trace.Tracer
	universe *naming.Universe
	commons  [][]byte // Shared: one common file per cycle, plus one to prime
	rigs     []*rig
	closers  []func()

	wall, virt obs.Histogram // cycle latencies; virt under Virtual
	mu         sync.Mutex
	tree       TreeExt // Tree: guarded by mu
	mismatches atomic.Int64
}

// rig is one session: its workstation identity, client and workload state.
type rig struct {
	host, home string // home is "/u/<user>/"
	dataPath   string
	jobPaths   []string
	script     []byte
	gen        *workload.Generator
	content    []byte
	files      []workload.MonorepoFile // Tree

	cl     *client.Client // unclustered
	cc     *client.ClusterClient
	conn   *countingConn // Tree
	wsp    *client.Workspace
	vclock *netsim.Host // Virtual: stamps cycles
}

// close shuts the clients, then the servers, then the transport.
func (b *bench) close() {
	for _, r := range b.rigs {
		if r.cc != nil {
			_ = r.cc.Close()
		} else if r.cl != nil {
			_ = r.cl.Close()
		}
	}
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
}

// run starts the servers, connects and primes every session, runs the
// measured cycles concurrently and fills the row.
func (b *bench) run() (Row, error) {
	s := b.s
	if s.Virtual && !s.resilient() {
		// A virtual-clock run goes on one P. Goroutines then switch only
		// where the protocol blocks, so, for one, a client's SUBMIT follows
		// its NOTIFY at once. With more Ps the scheduler can park the
		// submitter between the two long enough for the read loop to answer
		// the pull the NOTIFY triggered, and that exchange lands on the
		// cycle's virtual time. Fault-injection runs keep every P: they are
		// there to exercise recovery under real interleavings.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var fp0 runtime.MemStats
	var g0 int
	if s.Fleet {
		runtime.GC()
		runtime.ReadMemStats(&fp0)
		g0 = runtime.NumGoroutine()
	}
	if err := b.start(); err != nil {
		return Row{}, err
	}

	b.universe = naming.NewUniverse("bench")
	if s.Workload == Shared {
		commonGen := workload.NewGenerator(s.Seed ^ 0x5eed)
		b.commons = make([][]byte, s.Cycles+1)
		for i := range b.commons {
			b.commons[i] = commonGen.File(s.FileSize)
		}
	}
	b.rigs = make([]*rig, s.Sessions)
	for k := range b.rigs {
		i := s.first + k
		r := &rig{
			host: fmt.Sprintf("ws%d", i),
			home: fmt.Sprintf("/u/u%d/", i),
			gen:  workload.NewGenerator(s.Seed + int64(i)),
		}
		r.dataPath = r.home + "data.dat"
		b.universe.AddHost(r.host)
		b.rigs[k] = r
	}

	// Connect every session, then prime each: the first submission ships
	// each file in full, and the measured cycles are the steady-state
	// traffic the paper cares about.
	setupStart := time.Now()
	if err := b.each(b.setup); err != nil {
		return Row{}, err
	}
	if err := b.each(b.prime); err != nil {
		return Row{}, err
	}
	setupSec := time.Since(setupStart).Seconds()
	var capacity *CapacityExt
	if s.Fleet {
		runtime.GC()
		var fp1 runtime.MemStats
		runtime.ReadMemStats(&fp1)
		// Signed and clamped: a GC between cells can leave the baseline
		// heap above the post-connect figure, and the unsigned difference
		// would wrap to garbage.
		heap := max(int64(fp1.HeapInuse)-int64(fp0.HeapInuse), 0)
		capacity = &CapacityExt{
			GoroutinesPerSession: float64(runtime.NumGoroutine()-g0) / float64(s.Sessions),
			ResidentKBPerSession: float64(heap) / float64(s.Sessions) / 1024,
			ConnectSec:           setupSec,
		}
	}

	// Forced disconnects sever the live connection at evenly spaced
	// cycles; the client must reconnect and resume.
	bounceAt := make(map[int]bool, s.Disconnects)
	for k := 1; k <= s.Disconnects; k++ {
		bounceAt[k*s.Cycles/(s.Disconnects+1)] = true
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	vstart := make([]time.Duration, len(b.hosts))
	for m, h := range b.hosts {
		vstart[m] = h.Now()
	}
	start := time.Now()
	errs := make([]error, s.Sessions)
	var wg sync.WaitGroup
	for k, r := range b.rigs {
		wg.Add(1)
		go func(k int, r *rig) {
			defer wg.Done()
			for cyc := 0; cyc < s.Cycles; cyc++ {
				if bounceAt[cyc] {
					r.cl.Bounce()
				}
				if err := b.cycle(r, cyc); err != nil {
					errs[k] = fmt.Errorf("session %d: cycle %d: %w", s.first+k, cyc, err)
					return
				}
			}
		}(k, r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	for _, err := range errs {
		if err != nil {
			return Row{}, err
		}
	}
	if s.Virtual {
		// The busiest server's virtual elapsed time is the wall a real
		// deployment would wait on.
		elapsed = 0
		for m, h := range b.hosts {
			elapsed = max(elapsed, h.Now()-vstart[m])
		}
		if elapsed <= 0 {
			return Row{}, fmt.Errorf("no virtual time elapsed")
		}
	}

	wall, virt := b.wall.Snapshot(), b.virt.Snapshot()
	var snap metrics.Snapshot
	var cstats struct{ unique, logical int64 }
	var ack, job obs.HistogramSnapshot
	for m, srv := range b.servers {
		snap = metrics.Merge(snap, srv.Metrics())
		cs := srv.Cache().Stats()
		cstats.unique += cs.Bytes
		cstats.logical += cs.LogicalBytes
		a, j := b.observer[m].SubmitAck.Snapshot(), b.observer[m].JobLifetime.Snapshot()
		ack.Merge(&a)
		job.Merge(&j)
	}
	total := int(wall.Count)
	row := Row{
		Label:             s.Label,
		Transport:         s.Transport,
		Sessions:          s.Sessions,
		CyclesPerSess:     s.Cycles,
		TotalCycles:       total,
		FileSize:          s.FileSize,
		ElapsedSec:        elapsed.Seconds(),
		CyclesPerSec:      float64(total) / elapsed.Seconds(),
		P50Ms:             ms(wall.Quantile(0.50)),
		P90Ms:             ms(wall.Quantile(0.90)),
		P99Ms:             ms(wall.Quantile(0.99)),
		SubmitAckP50Ms:    ms(ack.Quantile(0.50)),
		SubmitAckP99Ms:    ms(ack.Quantile(0.99)),
		JobP50Ms:          ms(job.Quantile(0.50)),
		JobP99Ms:          ms(job.Quantile(0.99)),
		AllocsPerCycle:    float64(ms1.Mallocs-ms0.Mallocs) / float64(max(total, 1)),
		CacheHits:         snap.CacheHits,
		CacheMisses:       snap.CacheMisses,
		CacheEvictions:    snap.CacheEvictions,
		PullsIssued:       snap.PullsIssued,
		PullsDeferred:     snap.PullsDeferred,
		BytesOnWire:       snap.FileBytes(),
		WireFullBytes:     snap.FullBytes,
		WireDeltaBytes:    snap.DeltaBytes,
		WireManifestBytes: snap.ManifestBytes,
		WireChunkBytes:    snap.ChunkBytes,
		UniqueCacheBytes:  cstats.unique,
		LogicalCacheBytes: cstats.logical,
		DedupRatio:        1,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		CapacityExt:       capacity,
	}
	if cstats.unique > 0 {
		row.DedupRatio = float64(cstats.logical) / float64(cstats.unique)
	}
	row.setVirtual(&virt)
	if s.Chunked || s.Workload == Shared || s.CacheCapacity > 0 {
		row.DedupExt = &DedupExt{
			Chunked:         s.Chunked,
			Redundancy:      s.Redundancy,
			CacheCapacity:   s.CacheCapacity,
			Rehydrations:    snap.Rehydrations,
			FullRetransmits: snap.FullFallbacks,
		}
	}
	if s.Workload == Tree {
		row.TreeExt = &b.tree
		row.SyncVirtualMs = ms(virt.Sum)
	}
	if s.Instances > 0 {
		row.ClusterExt = &ClusterExt{
			Instances:         s.Instances,
			VirtualElapsedSec: elapsed.Seconds(),
			PeerForwards:      snap.PeerForwards,
			PeerDeltaBytes:    snap.PeerDeltaBytes,
			PeerManifestBytes: snap.PeerManifestBytes,
			PeerChunkBytes:    snap.PeerChunkBytes,
			PeerBytesSaved:    snap.DeltaBytesSaved,
			PeerNegatives:     snap.PeerNegatives,
			PeerFullTransfers: snap.PeerFullTransfers,
			OwnerMisses:       snap.OwnerMisses,
			RingRebalances:    snap.RingRebalances,
		}
	}
	if b.tracer != nil {
		ts := b.tracer.Stats()
		row.TraceExt = &TraceExt{Traced: true, TraceCompleted: ts.Completed, TraceSpans: ts.Spans}
		if s.ChromeOut != "" {
			if err := writeSlowestChrome(b.tracer, s.ChromeOut); err != nil {
				return Row{}, fmt.Errorf("chrome export: %w", err)
			}
		}
	}
	if s.resilient() {
		c := &ChaosExt{Mismatches: int(b.mismatches.Load())}
		var cs metrics.Snapshot
		for _, r := range b.rigs {
			cs = metrics.Merge(cs, r.cl.Metrics())
		}
		c.Reconnects, c.Retries, c.Fallbacks = cs.Reconnects, cs.Retries, cs.FullFallbacks
		for _, l := range b.links {
			dropped, spikes, flaps := l.FaultStats()
			c.Dropped += dropped
			c.Spikes += spikes
			c.FlapRejects += flaps
		}
		row.ChaosExt = c
	}
	return row, nil
}

// start builds the transport, starts the servers and sets b.dial, which
// connects session k's workstation to server m.
func (b *bench) start() error {
	s := b.s
	b.names = []string{"super"}
	if s.Instances > 0 {
		b.names = make([]string, s.Instances)
		for m := range b.names {
			b.names[m] = fmt.Sprintf("super%d", m+1)
		}
	}
	acceptors := make([]server.Acceptor, len(b.names))
	switch s.Transport {
	case "tcp", "pipe":
		var accept, dial func() (net.Conn, error)
		if s.Transport == "tcp" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			b.closers = append(b.closers, func() { _ = ln.Close() })
			accept = ln.Accept
			dial = func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) }
		} else {
			// Rendezvous dialer: every dial mints a synchronous net.Pipe
			// and hands the server end to the acceptor. No sockets, no file
			// descriptors — 10k sessions cost only goroutines and heap,
			// which is exactly what a capacity run wants to measure.
			ch, closed := make(chan net.Conn), make(chan struct{})
			b.closers = append(b.closers, func() { close(closed) })
			accept = func() (net.Conn, error) {
				select {
				case c := <-ch:
					return c, nil
				case <-closed:
					return nil, net.ErrClosed
				}
			}
			dial = func() (net.Conn, error) {
				c1, c2 := net.Pipe()
				select {
				case ch <- c2:
					return c1, nil
				case <-closed:
					return nil, net.ErrClosed
				}
			}
		}
		stream := func(c net.Conn, err error) (wire.Conn, error) {
			if err != nil {
				return nil, err
			}
			return wire.NewStreamConn(c), nil
		}
		acceptors[0] = server.AcceptorFunc(func() (wire.Conn, error) { return stream(accept()) })
		b.dial = func(int, int) (wire.Conn, error) { return stream(dial()) }
	case "netsim":
		nw := netsim.New()
		b.hosts = make([]*netsim.Host, len(b.names))
		for m := range b.hosts {
			b.hosts[m] = nw.Host(b.names[m])
		}
		// Instances share a machine room: LAN links pairwise.
		for m := range b.hosts {
			for n := m + 1; n < len(b.hosts); n++ {
				nw.Connect(b.hosts[m], b.hosts[n], netsim.LAN)
			}
		}
		for m, h := range b.hosts {
			lst, err := h.Listen(1)
			if err != nil {
				return err
			}
			b.closers = append(b.closers, func() { _ = lst.Close() })
			acceptors[m] = server.AcceptorFunc(func() (wire.Conn, error) { return lst.Accept() })
		}
		b.ws = make([]*netsim.Host, s.Sessions)
		for k := range b.ws {
			i := s.first + k
			b.ws[k] = nw.Host(fmt.Sprintf("ws%d", i))
			for _, h := range b.hosts {
				link := nw.Connect(b.ws[k], h, s.Link)
				if s.resilient() {
					f := s.Faults
					f.Seed = s.Seed + int64(i)*7919
					link.SetFaults(f)
					b.links = append(b.links, link)
				}
			}
		}
		b.dial = func(k, m int) (wire.Conn, error) { return b.ws[k].Dial(b.names[m], 1) }
	}

	if s.Trace {
		b.tracer = trace.New(trace.Config{})
	}
	for m, acc := range acceptors {
		cfg := server.Defaults(b.names[m])
		cfg.MaxConcurrentJobs = s.Sessions
		if s.Slots > 0 {
			cfg.MaxConcurrentJobs = s.Slots
		}
		cfg.CacheCapacity = s.CacheCapacity
		cfg.Obs = obs.New(nil, nil)
		cfg.Obs.SetTracer(b.tracer)
		if s.Virtual {
			cfg.Clock = b.hosts[m]
		}
		srv := server.New(cfg)
		go func() { _ = srv.Serve(acc) }()
		b.closers = append(b.closers, srv.Close)
		b.servers = append(b.servers, srv)
		b.observer = append(b.observer, cfg.Obs)
	}
	if s.Instances > 0 {
		for m, srv := range b.servers {
			host := b.hosts[m]
			srv.JoinCluster(server.ClusterSpec{
				Instance: b.names[m],
				Members:  b.names,
				Dial:     func(member string) (wire.Conn, error) { return host.Dial(member, 1) },
			})
		}
	}
	return nil
}

// each runs fn for every session. A fleet goes through a worker pool:
// sequential setup of 10k sessions would dominate the run, and unbounded
// fan-out would measure the scheduler's thundering herd rather than the
// server. Anything else goes one session at a time, so simulated clocks
// and chunk uploads advance in a reproducible order.
func (b *bench) each(fn func(k int) error) error {
	workers := 1
	if b.s.Fleet {
		workers = 8 * runtime.GOMAXPROCS(0)
	}
	return forEachCell(workers, b.s.Sessions, func(k int) error {
		if err := fn(k); err != nil {
			return fmt.Errorf("session %d: %w", b.s.first+k, err)
		}
		return nil
	})
}

// setup writes session k's files and connects its client.
func (b *bench) setup(k int) error {
	s, r := b.s, b.rigs[k]
	if s.Workload == Tree {
		r.files = r.gen.Monorepo(s.Files, s.FileSize)
		for _, f := range r.files {
			if err := b.universe.WriteFile(r.host, r.home+f.Path, f.Content); err != nil {
				return err
			}
		}
	} else {
		if s.Workload == Shared {
			r.content = r.gen.SharedVariant(b.commons[0], s.Redundancy)
		} else {
			r.content = r.gen.File(s.FileSize)
		}
		r.script = []byte("checksum data.dat\n")
		r.jobPaths = []string{r.home + "run.job"}
		if s.JobCPU > 0 {
			occupy := "stall"
			if s.Virtual {
				occupy = "sleep"
			}
			r.script = []byte(fmt.Sprintf("%s %s\nchecksum data.dat\n", occupy, s.JobCPU))
		}
		if s.Instances > 0 {
			// Jobs route to the script's ring owner, so with one script
			// per session the busiest instance is set by a few-keys-into-
			// few-bins draw — high variance that would gate the scaling
			// number on luck. Rotating through several scripts spreads
			// each session's jobs across instances round by round, so
			// per-instance load time-averages toward sessions/instances.
			r.jobPaths = nil
			for j := 0; j < 8; j++ {
				r.jobPaths = append(r.jobPaths, fmt.Sprintf("%srun%d.job", r.home, j))
			}
		}
		for _, p := range r.jobPaths {
			if err := b.universe.WriteFile(r.host, p, r.script); err != nil {
				return err
			}
		}
		if err := b.universe.WriteFile(r.host, r.dataPath, r.content); err != nil {
			return err
		}
	}
	return b.connect(k)
}

// prime runs session k's first, unmeasured submission (or sync).
func (b *bench) prime(k int) error {
	r := b.rigs[k]
	ctx, cancel := b.context()
	defer cancel()
	if b.s.Workload == Tree {
		r.wsp = r.cl.Workspace(r.home + "src")
		if _, err := r.wsp.Sync(ctx); err != nil {
			return fmt.Errorf("prime sync: %w", err)
		}
		return nil
	}
	rec, err := r.job(ctx, r.jobPaths[0])
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	b.verify(r, rec)
	return nil
}

// connect opens session k's client: a ConnectCluster client for a
// cluster, a redialing one for a resilient scenario, else a plain session
// on one dialed connection.
func (b *bench) connect(k int) error {
	s, r, ctx := b.s, b.rigs[k], context.Background()
	user := fmt.Sprintf("u%d", s.first+k)
	cfg := client.Config{
		User:        user,
		Universe:    b.universe,
		Host:        r.host,
		Env:         env.Default(user),
		Chunked:     s.Chunked,
		PerFileSync: s.PerFileSync,
	}
	if b.tracer != nil {
		cfg.Obs = obs.New(nil, nil)
		cfg.Obs.SetTracer(b.tracer)
	}
	var ws *netsim.Host
	if b.ws != nil {
		ws = b.ws[k]
	}
	if s.Virtual {
		cfg.Clock, r.vclock = ws, ws
	}
	var err error
	switch {
	case s.Instances > 0:
		members := make([]client.ClusterMember, len(b.names))
		for m, name := range b.names {
			members[m] = client.ClusterMember{Name: name, Dial: func() (wire.Conn, error) { return b.dial(k, m) }}
		}
		r.cc, err = client.ConnectCluster(ctx, members, cfg)
		return err
	case s.resilient():
		i := s.first + k
		cfg.Dial = func() (wire.Conn, error) { return b.dial(k, 0) }
		cfg.Retry = client.RetryPolicy{
			MaxAttempts: 60,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Seed:        s.Seed + int64(i) + 1,
		}
		cfg.RPCTimeout = 30 * time.Second
		if ws != nil {
			cfg.Sleep = func(ctx context.Context, d time.Duration) error {
				ws.Process(d)
				return ctx.Err()
			}
		}
		// The initial connect may start inside a flap window or lose its
		// handshake to a drop; step virtual time forward and retry.
		for attempt := 0; ; attempt++ {
			if r.cl, err = client.Connect(ctx, nil, cfg); err == nil || ws == nil || attempt >= 100 {
				return err
			}
			ws.Process(50 * time.Millisecond)
		}
	default:
		conn, err := b.dial(k, 0)
		if err != nil {
			return err
		}
		if s.Workload == Tree {
			r.conn = &countingConn{inner: conn}
			conn = r.conn
		}
		r.cl, err = client.Connect(ctx, conn, cfg)
		return err
	}
}

// cycle runs one measured cycle: edit, then the timed submit-and-wait (or
// sync), then for a resilient scenario verification of the output.
func (b *bench) cycle(r *rig, cyc int) error {
	s := b.s
	ctx, cancel := b.context()
	defer cancel()
	switch s.Workload {
	case Tree:
		for _, i := range r.gen.SparseEdit(len(r.files), max(s.Files/100, 1)) {
			r.files[i].Content = r.gen.Modify(r.files[i].Content, 20, workload.EditReplace)
			if err := b.universe.WriteFile(r.host, r.home+r.files[i].Path, r.files[i].Content); err != nil {
				return err
			}
		}
	case Shared:
		r.content = r.gen.SharedVariant(b.commons[cyc+1], s.Redundancy)
	default:
		r.content = r.gen.Modify(r.content, editPercent, workload.EditReplace)
	}
	if s.Workload != Tree {
		if err := b.universe.WriteFile(r.host, r.dataPath, r.content); err != nil {
			return err
		}
	}

	var msgs0, bytes0 int64
	if r.conn != nil {
		msgs0, bytes0 = r.conn.messages.Load(), r.conn.bytes.Load()
	}
	var v0 time.Duration
	if r.vclock != nil {
		v0 = r.vclock.Now()
	}
	t0 := time.Now()
	var rec env.JobRecord
	var err error
	if s.Workload == Tree {
		var st client.SyncStats
		if st, err = r.wsp.Sync(ctx); err != nil {
			return fmt.Errorf("sync: %w", err)
		}
		b.mu.Lock()
		b.tree.WireMessages += r.conn.messages.Load() - msgs0
		b.tree.SyncWireBytes += r.conn.bytes.Load() - bytes0
		b.tree.SyncFiles += st.Files
		b.tree.SyncChanged += st.Changed
		b.tree.SyncRoundTrips += st.RoundTrips
		b.mu.Unlock()
	} else if rec, err = r.job(ctx, r.jobPaths[cyc%len(r.jobPaths)]); err != nil {
		return err
	}
	b.wall.Observe(time.Since(t0))
	if r.vclock != nil {
		b.virt.Observe(r.vclock.Now() - v0)
	}

	b.verify(r, rec)
	return nil
}

// verify counts a resilient scenario's job output as a mismatch unless it
// equals a fault-free local execution of the same script and input. The
// prime is verified too: it is each session's full-file upload.
func (b *bench) verify(r *rig, rec env.JobRecord) {
	if !b.s.resilient() {
		return
	}
	want := jobs.Execute(jobs.Request{Script: r.script, Inputs: map[string][]byte{"data.dat": r.content}})
	if !bytes.Equal(rec.Stdout, want.Stdout) || rec.ExitCode != want.ExitCode {
		b.mismatches.Add(1)
	}
}

// context bounds one submission. A resilient scenario gets a wall-clock
// deadline as a hang guard only — all simulated waiting runs on virtual
// time; elsewhere a deadline would only cost a timer per cycle.
func (b *bench) context() (context.Context, context.CancelFunc) {
	if b.s.resilient() {
		return context.WithTimeout(context.Background(), 2*time.Minute)
	}
	return context.Background(), func() {}
}

// job submits script over the session's data file and waits for it.
func (r *rig) job(ctx context.Context, script string) (env.JobRecord, error) {
	inputs := []string{r.dataPath}
	if r.cc != nil {
		j, err := r.cc.Submit(ctx, script, inputs, client.SubmitOptions{})
		if err != nil {
			return env.JobRecord{}, fmt.Errorf("submit: %w", err)
		}
		return r.cc.Wait(ctx, j)
	}
	j, err := r.cl.Submit(ctx, script, inputs, client.SubmitOptions{})
	if err != nil {
		return env.JobRecord{}, fmt.Errorf("submit: %w", err)
	}
	rec, err := r.cl.Wait(ctx, j)
	if err != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		st, serr := r.cl.Status(sctx, j)
		cancel()
		return rec, fmt.Errorf("wait job %d: %w (server state: %v %q, status err: %v)", j, err, st.State, st.Detail, serr)
	}
	return rec, nil
}

// countingConn wraps a wire.Conn and counts frames and payload bytes in both
// directions; sends and receives run on different goroutines, hence the
// atomics. It deliberately exposes only the base interface — optional
// capabilities (buffer reuse, scheduled sends) are hidden, so per-file and
// tree syncs run the same plain copy path and the counts stay comparable.
type countingConn struct {
	inner    wire.Conn
	messages atomic.Int64
	bytes    atomic.Int64
}

func (c *countingConn) Send(payload []byte) error {
	c.messages.Add(1)
	c.bytes.Add(int64(len(payload)))
	return c.inner.Send(payload)
}

func (c *countingConn) Recv() ([]byte, error) {
	buf, err := c.inner.Recv()
	if err == nil {
		c.messages.Add(1)
		c.bytes.Add(int64(len(buf)))
	}
	return buf, err
}

func (c *countingConn) Close() error { return c.inner.Close() }

// writeSlowestChrome exports the slowest completed trace as Chrome
// trace-event JSON (the CI artifact proving traces load in Perfetto).
func writeSlowestChrome(tracer *trace.Tracer, path string) error {
	recs := tracer.Slowest(1)
	if len(recs) == 0 {
		return fmt.Errorf("no completed traces to export")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, recs[0]); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ms converts a duration to float milliseconds for the JSON schema.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
