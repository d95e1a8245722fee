package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"
)

func TestFloorPercent(t *testing.T) {
	const mb = 1 << 20
	for _, c := range []struct {
		live uint64
		want int
	}{
		{0, 100},        // nothing measured yet
		{1 * mb, 200},   // the runtime minimum, doubled, is the floor
		{2 * mb, 200},   // live×3 = 6 MB < 8 MB: the minimum binds
		{3 * mb, 166},   // live×2.66 = 8 MB
		{4 * mb, 100},   // 2×live reaches the floor: default pacing
		{512 * mb, 100}, // large heaps pace as GOGC=100 would
	} {
		if got := floorPercent(c.live, 8*mb); got != c.want {
			t.Errorf("floorPercent(%d MB, 8 MB) = %d, want %d", c.live/mb, got, c.want)
		}
	}
}

// TestGCFloorApplied: once started, the floor must actually retune the
// collector after a GC, not only compute the right percent.
func TestGCFloorApplied(t *testing.T) {
	if os.Getenv("GOGC") != "" {
		t.Skip("GOGC is set, so the floor is disabled")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	// A floor far above this test's live heap, so the percent is set by the
	// runtime-minimum term and cannot be confused with the default 100.
	const floor = 64 << 20
	startGCFloor(floor)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := 0; i < 50; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond) // finalizers run on their own goroutine
		// Reset to the default after each read, so a pass proves a retune.
		got := debug.SetGCPercent(100)
		metrics.Read(live)
		if want := floorPercent(live[0].Value.Uint64(), floor); got == want && want != 100 {
			return
		}
	}
	t.Fatal("GC percent never left 100: the floor's finalizer did not run")
}
