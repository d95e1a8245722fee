package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records the benchmark's own spans in memory: one root span per
// traced cycle, a child for each client call, and the layer replays hung
// under the cycle whose inputs they replay. A nil tracer records nothing.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent int // parent 0 = root
	name       string
	lane       int // session index
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, parent, lane int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, lane: lane, start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	return id
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.parent] = append(children[s.parent], s.id)
	}
	self := make([]time.Duration, len(t.spans))
	type iv struct{ a, b time.Duration }
	for i, s := range t.spans {
		var ivs []iv
		for _, c := range children[s.id] {
			cs := t.spans[c-1]
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := time.Duration(0), s.start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	span, metric string
	count        int
	self         time.Duration
}

// spanMetric names the per-layer metric each span feeds.
var spanMetric = map[string]string{
	"cycle":          "cycle_p50_ms",
	"client.notify":  "client.notify_us",
	"client.sync":    "client.sync_ms",
	"client.submit":  "client.submit_us",
	"client.wait":    "client.wait_us",
	"vcs.commit":     "vcs.commit_us",
	"naming.resolve": "naming.resolve_us",
	"diff.compute":   "diff.compute_us",
	"diff.apply":     "diff.apply_us",
	"chunk.split":    "chunk.split_us_per_mb",
	"cache.put":      "cache.put_us",
	"cache.get":      "cache.get_us",
	"wire.encode":    "wire.encode_ns",
	"wire.decode":    "wire.decode_ns",
	"jobs.execute":   "jobs.execute_us",
	"tree.build":     "tree.build_ms",
	"tree.diff":      "tree.diff_ms",
}

// table sums self time per span name, largest first.
func (t *tracer) table() []layerRow {
	self := t.selfTimes()
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{span: s.name, metric: spanMetric[s.name]}
			rows[s.name] = r
		}
		r.count++
		r.self += self[i]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeTable prints the self-time table. Client-call spans and replay
// spans get separate shares: the first split the measured cycles, the
// second split the replayed layer work of the sampled cycles.
func writeTable(w io.Writer, workload string, rows []layerRow, cycles, replayed int) {
	var live, replay time.Duration
	for _, r := range rows {
		if isReplay(r.span) {
			replay += r.self
		} else {
			live += r.self
		}
	}
	fmt.Fprintf(w, "# per-layer self time, workload %s (%d traced cycles, %d replayed)\n", workload, cycles, replayed)
	fmt.Fprintf(w, "# %-16s %-24s %8s %14s %8s\n", "span", "metric", "count", "self/cycle_us", "share")
	for _, r := range rows {
		n, total := cycles, live
		if isReplay(r.span) {
			n, total = replayed, replay
		}
		per, share := 0.0, 0.0
		if n > 0 {
			per = float64(r.self.Nanoseconds()) / 1e3 / float64(n)
		}
		if total > 0 {
			share = 100 * float64(r.self) / float64(total)
		}
		fmt.Fprintf(w, "# %-16s %-24s %8d %14.1f %7.1f%%\n", r.span, r.metric, r.count, per, share)
	}
}

func isReplay(name string) bool { return name != "cycle" && !strings.HasPrefix(name, "client.") }

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events), the format Perfetto loads; each session gets its own lane.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name,
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  s.lane + 1,
			Args: map[string]string{"span": strconv.Itoa(s.id), "parent": strconv.Itoa(s.parent)},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}
