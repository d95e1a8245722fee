package main

import (
	"fmt"
	"os"
)

// replayMetrics are the per-layer metrics that come from replays, each the
// median over the replayed cycles. Times are per cycle, except cache.* (per
// operation), wire.* (per frame) and chunk.split_us_per_mb (per MiB split).
// A workload that never runs a layer reports it as 0.
var replayMetrics = []struct{ name, unit string }{
	{"vcs.commit_us", "us"},
	{"naming.resolve_us", "us"},
	{"diff.compute_us", "us"},
	{"diff.apply_us", "us"},
	{"chunk.split_us_per_mb", "us"},
	{"cache.put_us", "us"},
	{"cache.get_us", "us"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"jobs.execute_us", "us"},
	{"tree.build_ms", "ms"},
	{"tree.diff_ms", "ms"},
}

// perLayer fills the per-layer metrics from the traced slices, replays
// the layers on a sample of the traced cycles, prints the self-time table
// and writes the spans. A failed replay check is returned wrapping errCheck.
func perLayer(cfg config, w workload, plain, win *slice, tr *tracer, res *result) error {
	n := float64(win.ok)
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// client: the benchmark's own timing of each public call.
	var notify, submit, wait, syncs, trips, changed []float64
	for _, r := range win.records {
		if r.err != nil {
			continue
		}
		ct := r.t
		from := ct.start
		if !ct.notified.IsZero() {
			notify = append(notify, us(ct.notified.Sub(ct.start)))
			from = ct.notified
		}
		if !ct.synced.IsZero() {
			syncs = append(syncs, us(ct.synced.Sub(ct.start))/1e3)
			trips = append(trips, float64(ct.sync.RoundTrips))
			changed = append(changed, float64(ct.sync.Changed))
			from = ct.synced
		}
		submit = append(submit, us(ct.submitted.Sub(from)))
		wait = append(wait, us(ct.waited.Sub(ct.submitted)))
	}
	set("client.notify_us", "us", median(notify))
	set("client.submit_us", "us", median(submit))
	set("client.wait_us", "us", median(wait))
	set("client.sync_ms", "ms", median(syncs))
	set("client.allocs_per_cycle", "count", float64(plain.mallocs)/float64(plain.ok))
	set("tree.round_trips", "count", mean(trips))
	set("tree.changed_files", "count", mean(changed))

	// Replays, on up to maxReplays cycles spread evenly over the traced slices.
	rp := newReplayer(tr, w.cacheBytes())
	var replayErr error
	replayed := 0
	step := max(1, win.ok/maxReplays)
	for i, seen := 0, 0; i < len(win.records) && replayed < maxReplays; i++ {
		r := win.records[i]
		if r.err != nil {
			continue
		}
		if seen++; (seen-1)%step != 0 {
			continue
		}
		rp.lane = r.s.idx
		if err := w.replay(rp, r.s, r.k, r.root); err != nil && replayErr == nil {
			replayErr = fmt.Errorf("%w: replay of session %d cycle %d: %v", errCheck, r.s.idx, r.k, err)
		}
		replayed++
	}
	for _, m := range replayMetrics {
		set(m.name, m.unit, median(rp.vals[m.name]))
	}

	// Server counters, scraped around the traced slices.
	deltaSends, fullSends := win.counters["shadow_delta_sends_total"], win.counters["shadow_full_sends_total"]
	set("diff.delta_share", "ratio", ratio(deltaSends, deltaSends+fullSends))
	hits, misses := win.counters["shadow_cache_hits_total"], win.counters["shadow_cache_misses_total"]
	set("cache.hit_ratio", "ratio", ratio(hits, hits+misses))
	set("cache.evictions_per_cycle", "count", win.perCycle("shadow_cache_evictions_total"))
	set("cache.unique_mb", "MB", win.gauge("shadow_cache_unique_bytes")/(1<<20))
	set("cache.dedup_ratio", "ratio", win.gauge("shadow_cache_dedup_ratio"))
	set("wire.messages_per_cycle", "count", win.perCycle("shadow_messages_total"))
	set("wire.client_writes_per_cycle", "count", float64(win.conn.writes)/n)
	set("wire.control_bytes_per_cycle", "B", win.perCycle("shadow_control_bytes_total"))
	set("wire.delta_bytes_per_cycle", "B", win.perCycle("shadow_delta_bytes_total"))
	set("wire.full_bytes_per_cycle", "B", win.perCycle("shadow_full_bytes_total"))
	set("wire.output_bytes_per_cycle", "B", win.perCycle("shadow_output_bytes_total"))
	set("wire.framing_overhead_ratio", "ratio", win.framing())
	set("server.submit_ack_mean_us", "us", win.histMeanUS("shadow_submit_ack_seconds"))
	set("server.pull_arrival_mean_us", "us", win.histMeanUS("shadow_pull_arrival_seconds"))
	set("server.pulls_per_cycle", "count", win.perCycle("shadow_pulls_issued_total"))
	set("server.pulls_coalesced_per_cycle", "count", win.perCycle("shadow_pulls_coalesced_total"))
	set("server.heap_inuse_mb", "MB", win.gauge("shadow_heap_inuse_bytes")/(1<<20))
	set("server.goroutines", "count", win.gauge("shadow_goroutines"))
	set("jobs.lifetime_mean_us", "us", win.histMeanUS("shadow_job_lifetime_seconds"))

	plainRate := float64(plain.ok) / plain.elapsed.Seconds()
	tracedRate := n / win.elapsed.Seconds()
	set("trace.overhead_pct", "%", 100*(plainRate-tracedRate)/plainRate)

	writeTable(os.Stdout, cfg.workload, tr.table(), win.ok, replayed)
	fmt.Printf("# untraced %.1f cycles/s, traced %.1f cycles/s\n", plainRate, tracedRate)
	file, err := outPath(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("# spans written to %s\n", file)

	return replayErr
}
