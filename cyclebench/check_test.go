package main

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	shadow "shadowedit"
)

// A job whose output is right except for one corrupted expected checksum
// must be reported as failed, and counted as such.
func TestCorruptedExpectedChecksumFails(t *testing.T) {
	content := []byte("      X(I1) = Y(J) * 0.50000 + Z(7)\n")
	want := []expect{{"input.dat", crc(content)}}
	rec := shadow.JobRecord{ID: 7, Stdout: []byte(expectedStdout(want))}
	if err := verify(rec, want); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}

	corrupted := []expect{{"input.dat", want[0].sum ^ 1}}
	err := verify(rec, corrupted)
	if err == nil {
		t.Fatal("corrupted expected checksum was accepted")
	}
	if !strings.Contains(err.Error(), expectedStdout(corrupted)[:8]) {
		t.Errorf("failure does not name the expected checksum: %v", err)
	}
	var tl tally
	tl.record(nil)
	tl.record(err)
	if tl.attempted != 2 || tl.failed != 1 || !errors.Is(tl.firstErr, err) {
		t.Errorf("tally = %d attempted, %d failed, first %v; want 2, 1, the mismatch", tl.attempted, tl.failed, tl.firstErr)
	}
}

func TestNonZeroExitFails(t *testing.T) {
	want := []expect{{"input.dat", 0x1234}}
	rec := shadow.JobRecord{ID: 8, ExitCode: 1, Stdout: []byte(expectedStdout(want))}
	if verify(rec, want) == nil {
		t.Fatal("job with exit code 1 was accepted")
	}
}

// The benchmark's checksum must be the job builtin's CRC-32C (Castagnoli).
func TestChecksumIsCastagnoli(t *testing.T) {
	if got := crc([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("crc(123456789) = %08x, want e3069283", got)
	}
}

// Every step of an edit ring, the wrap-around included, rewrites the same
// number of lines, and no two versions in a lap are equal.
func TestEditRingSteps(t *testing.T) {
	versions, sums := editRing(rand.New(rand.NewSource(1)), 8<<10, 0.05)
	seen := map[uint32]bool{}
	var step int
	for i := range versions {
		if seen[sums[i]] {
			t.Fatalf("version %d repeats an earlier one", i)
		}
		seen[sums[i]] = true
		n := changedLines(versions[i], versions[(i+1)%len(versions)])
		if i == 0 {
			step = n
		}
		if n != step || n == 0 {
			t.Fatalf("step %d rewrites %d lines, step 0 rewrote %d", i, n, step)
		}
	}
}

func changedLines(a, b []byte) int {
	la, lb := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	n := 0
	for i := range la {
		if la[i] != lb[i] {
			n++
		}
	}
	return n
}
