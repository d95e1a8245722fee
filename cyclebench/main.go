// Command cyclebench is the repository's benchmark: closed-loop
// edit–submit–fetch cycles against a real shadowd child process over
// loopback TCP, driven through the public shadow client API, with every
// job's output checked.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	cyclebench -shadowd BIN -workload edit-large|workspace-sync|cold-commit
//	           -seed N -seconds S -trace 0|1
//
// A run sets up several deployments in turn, each a fresh shadowd with two
// warm sessions, and measures an equal slice of -seconds on each. With
// -trace 0 it prints the end-to-end metrics; with -trace 1 each slice is
// split into an untraced and a traced half, the layers' exported functions
// are replayed on a sample of the traced cycles' own inputs, the spans are
// written as Chrome trace-event JSON and the per-layer metrics printed. The
// last line of standard output is always the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	shadow "shadowedit"
	"shadowedit/internal/wire"
)

// sessions is the number of closed-loop sessions: one per core of the
// 2-CPU host the benchmark was sized on, each cycling with zero think time.
const sessions = 2

// slices is how many deployments a run sets up and measures in turn.
// Short-lived shadowds keep the server's memory bounded (it retains every
// finished job's inputs), and many set-ups give setup_s a steady median.
const slices = 12

type config struct {
	shadowd  string
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.shadowd, "shadowd", ".bench_build/shadowd", "shadowd binary to launch")
	flag.StringVar(&cfg.workload, "workload", "edit-large", "workload: edit-large, workspace-sync or cold-commit")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for trace files")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit, for the host record")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "cyclebench: -seconds must be positive")
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cyclebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session is one closed-loop user: a client on its own workstation host.
type session struct {
	idx        int
	user, host string
	u          *shadow.Universe
	c          *shadow.Client
	next       int // index of the next cycle to run
}

// cycleTiming marks the boundaries of one cycle's client calls. A zero
// mark means the workload does not make that call.
type cycleTiming struct {
	start, notified, synced, submitted, waited time.Time
	sync                                       shadow.SyncStats
}

// workload is one traffic mix. build makes every input from the seed
// before anything is timed; cycle writes the edit, then makes the timed
// calls and checks the job's output.
type workload interface {
	cacheBytes() int64 // shadowd's -cache; 0 = unbounded
	build(rng *rand.Rand)
	stage(u *shadow.Universe, ss []*session) error
	cycle(ctx context.Context, s *session, k int) (cycleTiming, error)
	warmCycles() int
	replay(rp *replayer, s *session, k, parent int) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "edit-large":
		return &editLarge{}, nil
	case "workspace-sync":
		return &workspaceSync{}, nil
	case "cold-commit":
		return &coldCommit{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// deployment is one started shadowd with connected, warm sessions.
type deployment struct {
	d        *daemon
	ss       []*session
	counters *connCounters
}

func (dep *deployment) close() error {
	for _, s := range dep.ss {
		if s.c != nil {
			_ = s.c.Close()
		}
	}
	return dep.d.stop()
}

// tally counts cycle outcomes across goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
}

// add merges another tally into t.
func (t *tally) add(o *tally) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

var hosts = [sessions]string{"arthur", "merlin"}
var users = [sessions]string{"ada", "bo"}

// setUp launches shadowd, stages the inputs, connects every session and
// runs the warm-up cycles; the returned duration is setup_s's sample.
func setUp(cfg config, w workload, t *tally) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(cfg.shadowd, "-cache", strconv.FormatInt(w.cacheBytes(), 10))
	if err != nil {
		return nil, 0, err
	}
	u := shadow.NewUniverse("nfs.bench")
	dep := &deployment{d: d, counters: &connCounters{}}
	for i := 0; i < sessions; i++ {
		u.AddHost(hosts[i])
		dep.ss = append(dep.ss, &session{idx: i, user: users[i], host: hosts[i], u: u})
	}
	fail := func(err error) (*deployment, time.Duration, error) {
		_ = dep.close()
		return nil, 0, err
	}
	if err := w.stage(u, dep.ss); err != nil {
		return fail(fmt.Errorf("stage inputs: %w", err))
	}
	for _, s := range dep.ss {
		c, err := dial(d.addr, u, s, dep.counters)
		if err != nil {
			return fail(err)
		}
		s.c = c
	}
	loop(context.Background(), w, dep.ss, w.warmCycles(), time.Time{}, t, nil, nil)
	return dep, time.Since(start), nil
}

// dial connects one session over TCP through a byte-counting socket.
func dial(addr string, u *shadow.Universe, s *session, counters *connCounters) (*shadow.Client, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return shadow.DialTCP(ctx, addr, shadow.ClientConfig{
		User:     s.user,
		Universe: u,
		Host:     s.host,
		Dial: func() (wire.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 30*time.Second)
			if err != nil {
				return nil, err
			}
			return wire.NewStreamConn(&countingConn{Conn: conn, c: counters}), nil
		},
	})
}

// cycleRecord is one finished cycle of a timed slice.
type cycleRecord struct {
	s    *session
	k    int
	t    cycleTiming
	err  error
	root int // root span id when traced
}

// loop runs closed-loop cycles on every session concurrently: either n
// cycles per session (warm-up) or until deadline. Every outcome goes into
// t; records, when non-nil, receives every cycle per session; tr, when
// non-nil, records each cycle's spans as it finishes.
func loop(ctx context.Context, w workload, ss []*session, n int, deadline time.Time, t *tally, records [][]cycleRecord, tr *tracer) {
	var wg sync.WaitGroup
	for i, s := range ss {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			for done := 0; ; done++ {
				if deadline.IsZero() && done >= n || !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				k := s.next
				s.next++
				cctx, cancel := context.WithTimeout(ctx, time.Minute)
				ct, err := w.cycle(cctx, s, k)
				cancel()
				if err != nil {
					err = fmt.Errorf("session %d cycle %d: %w", i, k, err)
				}
				t.record(err)
				if records != nil {
					records[i] = append(records[i], cycleRecord{s: s, k: k, t: ct, err: err, root: traceCycle(tr, i, ct)})
				}
			}
		}(i, s)
	}
	wg.Wait()
}

// traceCycle records a cycle's root span and one child per client call,
// returning the root's id.
func traceCycle(tr *tracer, lane int, ct cycleTiming) int {
	if tr == nil || ct.start.IsZero() || ct.waited.IsZero() {
		return 0
	}
	root := tr.add("cycle", 0, lane, ct.start, ct.waited)
	from := ct.start
	if !ct.notified.IsZero() {
		tr.add("client.notify", root, lane, from, ct.notified)
		from = ct.notified
	}
	if !ct.synced.IsZero() {
		tr.add("client.sync", root, lane, from, ct.synced)
		from = ct.synced
	}
	tr.add("client.submit", root, lane, from, ct.submitted)
	tr.add("client.wait", root, lane, ct.submitted, ct.waited)
	return root
}

// run sets up the deployments in turn. Each is timed from shadowd's
// launch to warm (setup_s's samples), then measured for an equal share of
// cfg.seconds and stopped, so no one shadowd lives past its slice.
func run(cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(cfg.shadowd); err != nil {
		return nil, fmt.Errorf("shadowd binary: %w", err)
	}
	w.build(rand.New(rand.NewSource(cfg.seed)))
	ctx := context.Background()
	t := &tally{}
	dur := time.Duration(cfg.seconds) * time.Second / slices
	var plain, traced []*slice
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		dur /= 2
	}
	var setups, rss []float64
	for i := 0; i < slices; i++ {
		dep, d, err := setUp(cfg, w, t)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			hb, _ := json.Marshal(hostRecord(dep, cfg.commit))
			fmt.Printf("# host %s\n", hb)
		}
		err = func() error {
			r, err := peakRSSMB(dep.d.pid())
			if err != nil {
				return err
			}
			rss = append(rss, r)
			sl, err := measure(ctx, w, dep, dur, t, nil)
			if err != nil {
				return err
			}
			plain = append(plain, sl)
			if cfg.trace {
				if sl, err = measure(ctx, w, dep, dur, t, tr); err != nil {
					return err
				}
				traced = append(traced, sl)
			}
			return nil
		}()
		if cerr := dep.close(); err == nil && cerr != nil {
			err = fmt.Errorf("stop shadowd: %w", cerr)
		}
		if err != nil {
			return nil, err
		}
	}

	res := &result{Metrics: map[string]metric{}}
	checkErr := reconcileAll(append(plain, traced...))
	if !cfg.trace {
		endToEnd(res, merge(leastStolen(plain)), median(setups), median(rss))
	} else if err := perLayer(cfg, w, merge(plain), merge(traced), tr, res); err != nil {
		if !errors.Is(err, errCheck) {
			return nil, err
		}
		checkErr = errors.Join(checkErr, err)
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0 && checkErr == nil
	if t.firstErr != nil {
		fmt.Fprintf(os.Stderr, "cyclebench: first failed cycle: %v\n", t.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "cyclebench: %v\n", checkErr)
	}
	fmt.Printf("# cycles attempted %d, failed %d, failed_ratio %.6f\n", t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)))
	return res, nil
}

// endToEnd fills the end-to-end metrics from the kept untraced slices.
func endToEnd(res *result, sl *slice, setup, rss float64) {
	lat := sl.latencies()
	n := float64(sl.ok)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("cycle_p50_ms", "ms", quantile(lat, 0.50))
	set("cycle_p99_ms", "ms", quantile(lat, 0.99))
	set("cycles_per_sec", "1/s", n/sl.elapsed.Seconds())
	set("wire_bytes_per_cycle", "B", float64(sl.conn.read+sl.conn.written)/n)
	set("server_cpu_ms_per_cycle", "ms", float64(sl.serverTicks)*1e3/ticksPerSecond/n)
	set("client_cpu_ms_per_cycle", "ms", float64(sl.clientCPU.Nanoseconds())/1e6/n)
	// Peak RSS once set-up and warm-up are done: a fixed amount of work,
	// so the figure does not grow with throughput while shadowd keeps
	// every finished job's input snapshot.
	set("server_rss_mb", "MB", rss)
	set("setup_s", "s", setup)
	fmt.Printf("# kept %.2fs, %d latency samples (%d beyond p99), framing overhead %.4f\n",
		sl.elapsed.Seconds(), len(lat), len(lat)-int(math.Ceil(0.99*float64(len(lat)))), sl.framing())
}

// hostRecord is what the results depend on beyond the code.
func hostRecord(dep *deployment, commit string) map[string]any {
	rec := map[string]any{
		"num_cpu":              runtime.NumCPU(),
		"gomaxprocs_client":    runtime.GOMAXPROCS(0),
		"go_version":           runtime.Version(),
		"transport":            "tcp over loopback",
		"commit":               commit,
		"sessions_closed_loop": sessions,
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		rec["gomaxprocs_server"] = v
	} else if n, err := allowedCPUs(dep.d.pid()); err == nil {
		rec["gomaxprocs_server"] = n
	}
	return rec
}

// outPath names a file under the output directory, creating it.
func outPath(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, name), nil
}
