package experiment

import (
	"os"
	"testing"
)

// TestAllocProfileRun is a profiling rig, enabled with SHADOW_ALLOCPROF=1:
// it runs the tcp server bench so -memprofile captures the per-cycle
// allocation sites.
func TestAllocProfileRun(t *testing.T) {
	if os.Getenv("SHADOW_ALLOCPROF") == "" {
		t.Skip("set SHADOW_ALLOCPROF=1 to run")
	}
	row, err := Run(Scenario{Sessions: 8, Cycles: 500, FileSize: 8 * 1024, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s", row)
}
