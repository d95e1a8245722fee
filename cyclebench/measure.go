package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// slice is one timed measurement on one warm deployment.
type slice struct {
	elapsed     time.Duration
	records     []cycleRecord
	ok          int // verified cycles
	serverTicks int64
	clientCPU   time.Duration
	conn        connSnap
	mallocs     uint64
	counters    map[string]float64   // increase of each shadowd counter
	gauges      map[string][]float64 // each shadowd gauge after the slice
	steal       float64              // share of the host's CPU time the hypervisor took
}

// measure runs one timed slice of dur on a warm deployment. Scrapes bracket
// the slice and never fall inside it; CPU readings sit inside the scrapes
// so the scrape's own server work is excluded.
func measure(ctx context.Context, w workload, dep *deployment, dur time.Duration, t *tally, tr *tracer) (*slice, error) {
	before, err := scrape(ctx, dep.d.adminAddr)
	if err != nil {
		return nil, err
	}
	ticks0, err := cpuTicks(dep.d.pid())
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	ru0 := rusageCPU()
	conn0 := dep.counters.snapshot()
	host0 := hostTicks()
	records := make([][]cycleRecord, len(dep.ss))
	local := &tally{}
	start := time.Now()
	loop(ctx, w, dep.ss, 0, start.Add(dur), local, records, tr)
	sl := &slice{elapsed: time.Since(start), counters: map[string]float64{}, gauges: map[string][]float64{}}
	sl.steal = hostTicks().stealShare(host0)
	sl.conn = dep.counters.snapshot().sub(conn0)
	sl.clientCPU = rusageCPU() - ru0
	runtime.ReadMemStats(&ms)
	sl.mallocs = ms.Mallocs - mallocs0
	ticks1, err := cpuTicks(dep.d.pid())
	if err != nil {
		return nil, err
	}
	sl.serverTicks = ticks1 - ticks0
	after, err := scrape(ctx, dep.d.adminAddr)
	if err != nil {
		return nil, err
	}
	for name, v := range after {
		if isGauge(name) {
			sl.gauges[name] = []float64{v}
		} else {
			sl.counters[name] = v - before[name]
		}
	}
	for _, r := range records {
		sl.records = append(sl.records, r...)
	}
	sl.ok = local.attempted - local.failed
	t.add(local)
	fmt.Printf("# slice %.2fs: %d cycles, %.1f cycles/s, host steal %.1f%%\n",
		sl.elapsed.Seconds(), local.attempted, float64(sl.ok)/sl.elapsed.Seconds(), 100*sl.steal)
	if sl.ok == 0 {
		return nil, fmt.Errorf("no verified cycle in a %v slice: %v", dur, local.firstErr)
	}
	return sl, nil
}

// merge sums slices into one; gauges keep every slice's value.
func merge(slices []*slice) *slice {
	m := &slice{counters: map[string]float64{}, gauges: map[string][]float64{}}
	for _, sl := range slices {
		m.elapsed += sl.elapsed
		m.records = append(m.records, sl.records...)
		m.ok += sl.ok
		m.serverTicks += sl.serverTicks
		m.clientCPU += sl.clientCPU
		m.conn = m.conn.add(sl.conn)
		m.mallocs += sl.mallocs
		for k, v := range sl.counters {
			m.counters[k] += v
		}
		for k, v := range sl.gauges {
			m.gauges[k] = append(m.gauges[k], v...)
		}
	}
	return m
}

// leastStolen keeps the slices whose hypervisor steal is at most the
// median slice's. On a shared virtual machine a neighbour's burst takes
// CPU from both processes at once and slows every wall-clock metric with
// it; setting the most disturbed slices aside keeps runs comparable. With
// no steal at all every slice is kept.
func leastStolen(slices []*slice) []*slice {
	steals := make([]float64, len(slices))
	for i, sl := range slices {
		steals[i] = sl.steal
	}
	limit := median(steals)
	var kept []*slice
	for _, sl := range slices {
		if sl.steal <= limit {
			kept = append(kept, sl)
		}
	}
	return kept
}

// cpuSample is the host-wide CPU time split from the first line of
// /proc/stat, in clock ticks.
type cpuSample struct{ total, steal int64 }

func hostTicks() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s cpuSample
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

func (s cpuSample) stealShare(before cpuSample) float64 {
	return ratio(float64(s.steal-before.steal), float64(s.total-before.total))
}

// isGauge tells shadowd's gauges from its counters and histogram series.
func isGauge(name string) bool {
	return !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_sum") &&
		!strings.HasSuffix(name, "_count") && !strings.Contains(name, "_bucket{")
}

func rusageCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perCycle divides a counter's increase by the verified cycles.
func (sl *slice) perCycle(name string) float64 { return sl.counters[name] / float64(sl.ok) }

// gauge is a gauge's median over the slices' closing scrapes.
func (sl *slice) gauge(name string) float64 { return median(sl.gauges[name]) }

// histMeanUS is a histogram's mean in microseconds, from the increases of
// its _sum and _count series.
func (sl *slice) histMeanUS(name string) float64 {
	return ratio(sl.counters[name+"_sum"], sl.counters[name+"_count"]) * 1e6
}

// payload is what shadowd counted as transfer payload: control, delta,
// full-content and output bytes.
func (sl *slice) payload() float64 {
	return sl.counters["shadow_control_bytes_total"] + sl.counters["shadow_delta_bytes_total"] +
		sl.counters["shadow_full_bytes_total"] + sl.counters["shadow_output_bytes_total"]
}

func (sl *slice) socketBytes() float64 { return float64(sl.conn.read + sl.conn.written) }

// framing is socket bytes over shadowd payload bytes.
func (sl *slice) framing() float64 { return ratio(sl.socketBytes(), sl.payload()) }

// reconcileAll checks each slice's client socket count against shadowd's
// payload count: framing only adds bytes, so fewer socket bytes means one
// of the two counts is wrong.
func reconcileAll(slices []*slice) error {
	for i, sl := range slices {
		if sl.socketBytes() < sl.payload() {
			return fmt.Errorf("%w: slice %d: socket bytes %.0f below shadowd payload bytes %.0f",
				errCheck, i, sl.socketBytes(), sl.payload())
		}
	}
	return nil
}

// errCheck marks a failed correctness check, as opposed to an error that
// stops the run.
var errCheck = errors.New("check failed")

// latencies returns the cycle latencies in ms, sorted; a failed cycle
// counts as missing every limit.
func (sl *slice) latencies() []float64 {
	out := make([]float64, 0, len(sl.records))
	for _, r := range sl.records {
		if r.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, float64(r.t.waited.Sub(r.t.start).Nanoseconds())/1e6)
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
