package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
)

// gcHeapFloor is the smallest heap goal shadowd lets the collector pace to.
// shadowd's live heap is small — session state, the job table and what the
// cache holds — while every cycle churns whole file versions through it
// (delta bases assembled from chunks, applied results, job inputs). At the
// runtime's default 4 MB minimum goal that churn starts a collection every
// few cycles, and on small-file workloads marking becomes a large share of
// server CPU. Once the live heap passes half the floor, the floor no longer
// binds: a large heap grows no further than GOGC=100 lets it.
const gcHeapFloor = 8 << 20

// runtimeHeapMinimum is the Go runtime's minimum heap goal at GOGC=100;
// it scales with the GC percent.
const runtimeHeapMinimum = 4 << 20

// startGCFloor keeps the heap goal at max(2×live, floor) for the life of
// the process, unless the operator set GOGC. It retunes the GC percent
// after every collection, from a finalizer that re-arms itself.
func startGCFloor(floor uint64) {
	if os.Getenv("GOGC") != "" {
		return
	}
	f := &gcFloor{floor: floor, live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	runtime.SetFinalizer(f, (*gcFloor).retune)
}

// gcFloor holds a pointer so that it never comes from the tiny allocator.
// A tiny object shares its 16-byte block with other small pointer-free
// allocations, and its finalizer runs only once the whole block is
// unreachable: one long-lived neighbour would keep the floor from ever
// being retuned.
type gcFloor struct {
	floor uint64
	live  []metrics.Sample
}

func (f *gcFloor) retune() {
	metrics.Read(f.live)
	debug.SetGCPercent(floorPercent(f.live[0].Value.Uint64(), f.floor))
	runtime.SetFinalizer(f, (*gcFloor).retune)
}

// floorPercent is the GC percent whose heap goal is floor for a live heap
// smaller than floor/2, and 100 otherwise. The goal is the larger of
// live×(1+pct/100) and the runtime minimum scaled by pct/100, so both
// terms are held to floor.
func floorPercent(live, floor uint64) int {
	if live == 0 || 2*live >= floor {
		return 100
	}
	return int(min(100*(floor-live)/live, 100*floor/runtimeHeapMinimum))
}
