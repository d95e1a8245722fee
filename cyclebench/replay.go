package main

import (
	"bytes"
	"fmt"
	"reflect"
	"time"

	"shadowedit/internal/cache"
	"shadowedit/internal/chunk"
	"shadowedit/internal/diff"
	"shadowedit/internal/jobs"
	"shadowedit/internal/naming"
	"shadowedit/internal/vcs"
	"shadowedit/internal/wire"
)

// maxReplays bounds how many traced cycles get their layers replayed.
const maxReplays = 40

// replayer times each layer's exported functions on a cycle's own inputs,
// recording a span per call under the cycle's root span and one value per
// cycle for each per-layer metric.
type replayer struct {
	tr    *tracer
	lane  int
	vals  map[string][]float64
	cache *cache.Cache
	store *vcs.Store
}

func newReplayer(tr *tracer, capacity int64) *replayer {
	return &replayer{
		tr:    tr,
		vals:  map[string][]float64{},
		cache: cache.New(capacity, cache.LRU),
		store: vcs.NewStore(1),
	}
}

func (rp *replayer) timed(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	rp.tr.add(name, parent, rp.lane, start, end)
	return end.Sub(start)
}

func (rp *replayer) put(metric string, v float64) { rp.vals[metric] = append(rp.vals[metric], v) }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// diffPairs replays diff.Compute and Delta.Apply on each (base, target)
// pair, checks the round trip, and returns the encoded deltas.
func (rp *replayer) diffPairs(parent int, pairs [][2][]byte) ([][]byte, error) {
	var compute, apply time.Duration
	encoded := make([][]byte, len(pairs))
	for i, p := range pairs {
		var d *diff.Delta
		var err error
		compute += rp.timed("diff.compute", parent, func() { d, err = diff.Compute(diff.HuntMcIlroy, p[0], p[1]) })
		if err != nil {
			return nil, fmt.Errorf("diff.Compute: %w", err)
		}
		var out []byte
		apply += rp.timed("diff.apply", parent, func() { out, err = d.Apply(p[0]) })
		if err != nil || !bytes.Equal(out, p[1]) {
			return nil, fmt.Errorf("diff round trip failed: %v", err)
		}
		encoded[i] = d.Encode()
	}
	rp.put("diff.compute_us", us(compute))
	rp.put("diff.apply_us", us(apply))
	return encoded, nil
}

// split replays chunk.Split over the cycle's new content.
func (rp *replayer) split(parent int, blobs [][]byte) {
	var took time.Duration
	n := 0
	for _, b := range blobs {
		took += rp.timed("chunk.split", parent, func() { _ = chunk.Split(b, chunk.DefaultParams) })
		n += len(b)
	}
	rp.put("chunk.split_us_per_mb", us(took)/(float64(n)/(1<<20)))
}

type cacheItem struct {
	id      naming.ShadowID
	version uint64
	content []byte
}

// cachePutGet replays the server cache's arrival puts and job-input gets,
// per operation.
func (rp *replayer) cachePutGet(parent int, puts []cacheItem, gets []naming.ShadowID) error {
	var put, get time.Duration
	var err error
	for _, it := range puts {
		put += rp.timed("cache.put", parent, func() { err = rp.cache.Put(it.id, it.version, it.content) })
		if err != nil {
			return fmt.Errorf("cache.Put: %w", err)
		}
	}
	for _, id := range gets {
		var ok bool
		get += rp.timed("cache.get", parent, func() { _, ok = rp.cache.Get(id) })
		if !ok {
			return fmt.Errorf("cache.Get: %d missing after put", id)
		}
	}
	rp.put("cache.put_us", us(put)/float64(len(puts)))
	rp.put("cache.get_us", us(get)/float64(len(gets)))
	return nil
}

// commit replays the version store commits the client makes in a cycle.
func (rp *replayer) commit(parent int, refs []wire.FileRef, contents [][]byte) {
	took := rp.timed("vcs.commit", parent, func() {
		for i, ref := range refs {
			rp.store.Commit(ref, contents[i])
		}
	})
	rp.put("vcs.commit_us", us(took))
}

// resolve replays the naming lookups a cycle makes.
func (rp *replayer) resolve(parent int, fn func() error) error {
	var err error
	took := rp.timed("naming.resolve", parent, func() { err = fn() })
	rp.put("naming.resolve_us", us(took))
	return err
}

// frames replays the wire codec on the frames a cycle exchanges: encode
// into one pre-sized buffer, then decode each frame into a fresh value.
func (rp *replayer) frames(parent int, msgs []wire.Message) error {
	size := 0
	for _, m := range msgs {
		size += len(wire.Marshal(m))
	}
	buf := make([]byte, 0, size)
	offs := make([]int, len(msgs)+1)
	into := make([]wire.Message, len(msgs))
	for i, m := range msgs {
		into[i] = reflect.New(reflect.TypeOf(m).Elem()).Interface().(wire.Message)
	}
	enc := rp.timed("wire.encode", parent, func() {
		for i, m := range msgs {
			buf = wire.AppendMarshal(buf, m, wire.TraceContext{})
			offs[i+1] = len(buf)
		}
	})
	var err error
	dec := rp.timed("wire.decode", parent, func() {
		for i := range msgs {
			if _, e := wire.UnmarshalInto(into[i], buf[offs[i]:offs[i+1]]); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("wire.UnmarshalInto: %w", err)
	}
	rp.put("wire.encode_ns", float64(enc.Nanoseconds())/float64(len(msgs)))
	rp.put("wire.decode_ns", float64(dec.Nanoseconds())/float64(len(msgs)))
	return nil
}

// execute replays the job on the cycle's inputs and checks its output.
func (rp *replayer) execute(parent int, script string, inputs map[string][]byte, want []expect) error {
	var res jobs.Result
	took := rp.timed("jobs.execute", parent, func() {
		res = jobs.Execute(jobs.Request{Script: []byte(script), Inputs: inputs})
	})
	if exp := expectedStdout(want); res.ExitCode != 0 || string(res.Stdout) != exp {
		return fmt.Errorf("jobs.Execute replay: expected %q, got %q (exit %d)", exp, res.Stdout, res.ExitCode)
	}
	rp.put("jobs.execute_us", us(took))
	return nil
}

// outputFrame is the OUTPUT frame that delivers a job's stdout.
func outputFrame(job uint64, want []expect) *wire.Output {
	return &wire.Output{Job: job, State: wire.JobDone, Mode: wire.OutputFull, Stdout: []byte(expectedStdout(want))}
}
