package experiment

import (
	"fmt"
	"io"
	"time"
)

// LoadCell is one point of the multi-client throughput sweep.
type LoadCell struct {
	Workers    int
	Clients    int
	Jobs       int
	Makespan   time.Duration // wall clock, all measured jobs submitted to delivered
	JobsPerSec float64
}

// RunLoadSweep measures server throughput as MaxConcurrentJobs grows: the
// paper motivates shadow editing partly by the supercomputer being "swamped
// with several such remote login and file transfer sessions"; here N
// clients each submit a stream of compute-occupying jobs and we measure how
// admission-controlled execution scales. Wall-clock, not virtual: job
// stalls occupy real worker time, which is what the pool bounds. Each point
// is a cell of the scenario driver (scenario.go) over in-memory pipes; a
// failed job fails the sweep.
func RunLoadSweep(cfg Config, clients, jobsPerClient int, workerCounts []int) ([]LoadCell, error) {
	cfg = cfg.withDefaults()
	var out []LoadCell
	for _, workers := range workerCounts {
		row, err := Run(Scenario{
			Label:     fmt.Sprintf("load-%d", workers),
			Transport: "pipe",
			Sessions:  clients,
			Cycles:    jobsPerClient,
			FileSize:  4 * 1024,
			Seed:      cfg.Seed,
			JobCPU:    loadJobStall,
			Slots:     workers,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, LoadCell{
			Workers:    workers,
			Clients:    clients,
			Jobs:       row.TotalCycles,
			Makespan:   time.Duration(row.ElapsedSec * float64(time.Second)),
			JobsPerSec: row.CyclesPerSec,
		})
	}
	return out, nil
}

// loadJobStall is each job's worker occupancy.
const loadJobStall = 40 * time.Millisecond

// RenderLoadSweep prints the throughput sweep.
func RenderLoadSweep(w io.Writer, cells []LoadCell) {
	fmt.Fprintln(w, "Multi-client load sweep: wall-clock throughput vs concurrent job slots")
	fmt.Fprintf(w, "%-10s %10s %10s %14s %12s\n", "workers", "clients", "jobs", "makespan", "jobs/sec")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10d %10d %10d %14v %12.1f\n",
			c.Workers, c.Clients, c.Jobs, c.Makespan.Round(time.Millisecond), c.JobsPerSec)
	}
}
