package main

import (
	"fmt"
	"strings"

	shadow "shadowedit"
)

// expect is one input a job checksums and the CRC-32C of the exact bytes
// the benchmark wrote for it before the submit.
type expect struct {
	name string
	sum  uint32
}

// expectedStdout is the checksum builtin's output for want, in order.
func expectedStdout(want []expect) string {
	var b strings.Builder
	for _, e := range want {
		fmt.Fprintf(&b, "%08x %s\n", e.sum, e.name)
	}
	return b.String()
}

// verify checks a delivered job: exit code 0 and one checksum line per
// input equal to the benchmark's own CRC-32C of what it wrote.
func verify(rec shadow.JobRecord, want []expect) error {
	if rec.ExitCode != 0 {
		return fmt.Errorf("job %d exited %d, stderr %q", rec.ID, rec.ExitCode, rec.Stderr)
	}
	if exp := expectedStdout(want); string(rec.Stdout) != exp {
		return fmt.Errorf("job %d output mismatch: expected %q, got %q", rec.ID, exp, rec.Stdout)
	}
	return nil
}
