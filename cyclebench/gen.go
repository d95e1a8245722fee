package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
)

// castagnoli is the CRC the job's checksum builtin prints; the benchmark
// computes it independently from the bytes it wrote.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// commonLines recur throughout generated sources, as blank lines and
// control statements do in real Fortran, so the line differ sees repeated
// lines and not only unique ones.
var commonLines = []string{
	"\n",
	"C\n",
	"      CONTINUE\n",
	"      END DO\n",
	"      END IF\n",
	"      RETURN\n",
}

var idents = []string{"X", "Y", "Z", "U", "V", "W", "P", "Q", "RHO", "TEMP", "FLUX", "DT", "DX", "GRID", "MESH", "COEF"}

// commonEvery places one common line in every 40: a fixed share, because
// the line differ's cost grows with the repeated lines it must match, and a
// share left to chance would make that cost vary from seed to seed.
const commonEvery = 40

// genLine makes one source-like line of roughly 40 bytes.
func genLine(rng *rand.Rand) string {
	a := idents[rng.Intn(len(idents))]
	b := idents[rng.Intn(len(idents))]
	c := idents[rng.Intn(len(idents))]
	return fmt.Sprintf("      %s(I%d) = %s(J) * %.5f + %s(%d)\n",
		a, rng.Intn(100), b, rng.Float64(), c, rng.Intn(10000))
}

// genLines makes lines until their total size reaches size bytes.
func genLines(rng *rand.Rand, size int) []string {
	var lines []string
	n := 0
	for n < size {
		l := genLine(rng)
		if len(lines)%commonEvery == commonEvery-1 {
			l = commonLines[rng.Intn(len(commonLines))]
		}
		lines = append(lines, l)
		n += len(l)
	}
	return lines
}

// altLine returns a line that differs from old.
func altLine(rng *rand.Rand, old string) string {
	for {
		if l := genLine(rng); l != old {
			return l
		}
	}
}

// editRing builds a cyclic sequence of file versions in which every step,
// including the step from the last version back to the first, rewrites
// exactly share of the lines. Half the ring applies disjoint edit sets one
// by one; the other half reverts them in the same order, so all versions
// within one lap are distinct. Each version's CRC-32C is computed here,
// before anything is timed.
func editRing(rng *rand.Rand, size int, share float64) (versions [][]byte, sums []uint32) {
	base := genLines(rng, size)
	m := int(float64(len(base))*share + 0.5)
	if m < 1 {
		m = 1
	}
	half := len(base) / m
	if half > 50 {
		half = 50
	}
	perm := rng.Perm(len(base))
	alt := make([]string, len(base))
	for _, i := range perm[:half*m] {
		alt[i] = altLine(rng, base[i])
	}
	sets := make([][]int, half)
	for s := range sets {
		sets[s] = perm[s*m : (s+1)*m]
	}
	cur := append([]string(nil), base...)
	emit := func() {
		v := []byte(strings.Join(cur, ""))
		versions = append(versions, v)
		sums = append(sums, crc(v))
	}
	emit()
	for s := 0; s < half; s++ {
		for _, i := range sets[s] {
			cur[i] = alt[i]
		}
		emit()
	}
	for s := 0; s < half-1; s++ {
		for _, i := range sets[s] {
			cur[i] = base[i]
		}
		emit()
	}
	return versions, sums
}

// editFile rewrites a few lines of a small file, giving its edited variant.
func editFile(rng *rand.Rand, lines []string) []byte {
	out := append([]string(nil), lines...)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		i := rng.Intn(len(out))
		out[i] = altLine(rng, out[i])
	}
	return []byte(strings.Join(out, ""))
}
