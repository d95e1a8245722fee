package main

import (
	"context"
	"fmt"
	"math/rand"
	"path"
	"strings"
	"time"

	shadow "shadowedit"
	"shadowedit/internal/chunk"
	"shadowedit/internal/naming"
	"shadowedit/internal/tree"
	"shadowedit/internal/wire"
)

// outputOpts pins each session's result files to one name, so delivered
// output overwrites instead of adding a file per job to the universe.
var outputOpts = shadow.SubmitOptions{OutputFile: "job.out", ErrorFile: "job.err"}

// notifySubmitWait is the shadow editor's order for one changed file list:
// CommitAndNotify each data file, Submit, Wait, then check the output.
func notifySubmitWait(ctx context.Context, s *session, script string, data []string, want []expect) (cycleTiming, error) {
	var ct cycleTiming
	ct.start = time.Now()
	for _, p := range data {
		if _, err := s.c.CommitAndNotify(p); err != nil {
			return ct, fmt.Errorf("notify: %w", err)
		}
	}
	ct.notified = time.Now()
	return submitWait(ctx, s, ct, func() (uint64, error) {
		return s.c.Submit(ctx, script, data, outputOpts)
	}, want)
}

func submitWait(ctx context.Context, s *session, ct cycleTiming, submit func() (uint64, error), want []expect) (cycleTiming, error) {
	job, err := submit()
	if err != nil {
		return ct, fmt.Errorf("submit: %w", err)
	}
	ct.submitted = time.Now()
	rec, err := s.c.Wait(ctx, job)
	if err != nil {
		return ct, fmt.Errorf("wait job %d: %w", job, err)
	}
	ct.waited = time.Now()
	return ct, verify(rec, want)
}

// --- edit-large ---------------------------------------------------------

// editLarge is the paper's steady state: each user re-edits 5% of the lines
// of a 256 KB input and reruns a checksum job over it plus a read-only
// parameter file both hosts mount under different names.
type editLarge struct {
	ring      [sessions][][]byte
	sums      [sessions][]uint32
	shared    []byte
	sharedSum uint32
}

const (
	elInputBytes  = 256 << 10
	elEditShare   = 0.05
	elSharedBytes = 16 << 10
	elScript      = "checksum input.dat params.dat\n"
)

var elMounts = [sessions]string{"/proj", "/others"}

func (w *editLarge) cacheBytes() int64 { return 0 }
func (w *editLarge) warmCycles() int   { return 20 }

func (w *editLarge) build(rng *rand.Rand) {
	for i := range w.ring {
		w.ring[i], w.sums[i] = editRing(rng, elInputBytes, elEditShare)
	}
	w.shared = []byte(strings.Join(genLines(rng, elSharedBytes), ""))
	w.sharedSum = crc(w.shared)
}

func (w *editLarge) input(s *session) string  { return "/home/" + s.user + "/run/input.dat" }
func (w *editLarge) script(s *session) string { return "/home/" + s.user + "/run.job" }
func (w *editLarge) param(s *session) string  { return elMounts[s.idx] + "/params.dat" }

func (w *editLarge) stage(u *shadow.Universe, ss []*session) error {
	u.AddHost("fs")
	if err := u.WriteFile("fs", "/export/params.dat", w.shared); err != nil {
		return err
	}
	for _, s := range ss {
		fs, _ := u.Host(s.host)
		fs.Mount(elMounts[s.idx], "fs", "/export")
		if err := u.WriteFile(s.host, w.script(s), []byte(elScript)); err != nil {
			return err
		}
	}
	return nil
}

func (w *editLarge) want(s *session, k int) []expect {
	ring := w.ring[s.idx]
	return []expect{{"input.dat", w.sums[s.idx][k%len(ring)]}, {"params.dat", w.sharedSum}}
}

func (w *editLarge) cycle(ctx context.Context, s *session, k int) (cycleTiming, error) {
	ring := w.ring[s.idx]
	if err := s.u.WriteFile(s.host, w.input(s), ring[k%len(ring)]); err != nil {
		return cycleTiming{}, err
	}
	return notifySubmitWait(ctx, s, w.script(s), []string{w.input(s), w.param(s)}, w.want(s, k))
}

func (w *editLarge) replay(rp *replayer, s *session, k, parent int) error {
	ring := w.ring[s.idx]
	prev, cur := ring[(k-1+len(ring))%len(ring)], ring[k%len(ring)]
	enc, err := rp.diffPairs(parent, [][2][]byte{{prev, cur}})
	if err != nil {
		return err
	}
	rp.split(parent, [][]byte{cur})
	inID, paramID := naming.ShadowID(2*s.idx+1), naming.ShadowID(1<<40)
	if _, ok := rp.cache.Peek(paramID); !ok {
		_ = rp.cache.Put(paramID, 1, w.shared)
	}
	if err := rp.cachePutGet(parent, []cacheItem{{inID, uint64(k + 1), cur}}, []naming.ShadowID{inID, paramID}); err != nil {
		return err
	}
	var inRef, paramRef wire.FileRef
	if err := rp.resolve(parent, func() (err error) {
		if inRef, err = s.u.FileRef(s.host, w.input(s)); err != nil {
			return err
		}
		paramRef, err = s.u.FileRef(s.host, w.param(s))
		return err
	}); err != nil {
		return err
	}
	rp.commit(parent, []wire.FileRef{inRef, paramRef}, [][]byte{cur, w.shared})
	want := w.want(s, k)
	v := uint64(k + 1)
	if err := rp.frames(parent, []wire.Message{
		&wire.Notify{File: inRef, Version: v, Size: int64(len(cur)), Sum: crc(cur)},
		&wire.Pull{File: inRef, HaveVersion: v - 1, WantVersion: v},
		&wire.FileDelta{File: inRef, BaseVersion: v - 1, Version: v, Encoded: enc[0]},
		&wire.Submit{Script: []byte(elScript), Inputs: []wire.JobInput{{File: inRef, Version: v, As: "input.dat"}, {File: paramRef, Version: 1, As: "params.dat"}}},
		outputFrame(v, want),
	}); err != nil {
		return err
	}
	return rp.execute(parent, elScript, map[string][]byte{"input.dat": cur, "params.dat": w.shared}, want)
}

// --- workspace-sync -----------------------------------------------------

// workspaceSync is tree sync: each user keeps 1,000 1 KB files in 40
// directories; each round edits 1% of them, runs Workspace.Sync, and
// submits a job over two of the changed files.
type workspaceSync struct {
	files   [sessions][]wsFile
	groups  [sessions][][]int // round r edits files groups[r]
	groupOf [sessions][]int
	fps     [sessions][][2]chunk.Hash // leaf hashes per file variant, for replays
}

// wsFile is one workspace file with its two variants; every round that
// edits a file flips it to the other variant.
type wsFile struct {
	rel  string
	body [2][]byte
	sum  [2]uint32
}

const (
	wsDirs        = 40
	wsFilesPerDir = 25
	wsFileBytes   = 1 << 10
	wsEditFiles   = 10 // 1% of the files
	wsRounds      = wsDirs * wsFilesPerDir / wsEditFiles
)

func (w *workspaceSync) cacheBytes() int64 { return 0 }
func (w *workspaceSync) warmCycles() int   { return 10 }

func (w *workspaceSync) build(rng *rand.Rand) {
	for i := range w.files {
		n := wsDirs * wsFilesPerDir
		files := make([]wsFile, n)
		for f := range files {
			lines := genLines(rng, wsFileBytes)
			base := []byte(strings.Join(lines, ""))
			edited := editFile(rng, lines)
			files[f] = wsFile{
				rel:  fmt.Sprintf("d%02d/f%04d.dat", f/wsFilesPerDir, f),
				body: [2][]byte{base, edited},
				sum:  [2]uint32{crc(base), crc(edited)},
			}
		}
		perm := rng.Perm(n)
		w.groups[i] = make([][]int, wsRounds)
		w.groupOf[i] = make([]int, n)
		for r := range w.groups[i] {
			w.groups[i][r] = perm[r*wsEditFiles : (r+1)*wsEditFiles]
			for _, f := range w.groups[i][r] {
				w.groupOf[i][f] = r
			}
		}
		w.files[i] = files
	}
}

func (w *workspaceSync) root(s *session) string   { return "/ws/" + s.user }
func (w *workspaceSync) script(s *session) string { return "/home/" + s.user + "/ws.job" }

func (w *workspaceSync) stage(u *shadow.Universe, ss []*session) error {
	for _, s := range ss {
		for _, f := range w.files[s.idx] {
			if err := u.WriteFile(s.host, w.root(s)+"/"+f.rel, f.body[0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// variantAt is file f's variant after cycle k (k < 0: the staged base).
func (w *workspaceSync) variantAt(s *session, f, k int) int {
	g := w.groupOf[s.idx][f]
	if k < g {
		return 0
	}
	return ((k-g)/wsRounds + 1) % 2
}

// job names the round's job: a checksum over the first two edited files.
func (w *workspaceSync) job(s *session, k int) (script string, rels []string, want []expect) {
	group := w.groups[s.idx][k%wsRounds]
	v := w.variantAt(s, group[0], k)
	var names []string
	for _, f := range group[:2] {
		file := w.files[s.idx][f]
		rels = append(rels, file.rel)
		names = append(names, path.Base(file.rel))
		want = append(want, expect{path.Base(file.rel), file.sum[v]})
	}
	return "checksum " + strings.Join(names, " ") + "\n", rels, want
}

func (w *workspaceSync) cycle(ctx context.Context, s *session, k int) (cycleTiming, error) {
	var ct cycleTiming
	for _, f := range w.groups[s.idx][k%wsRounds] {
		file := w.files[s.idx][f]
		if err := s.u.WriteFile(s.host, w.root(s)+"/"+file.rel, file.body[w.variantAt(s, f, k)]); err != nil {
			return ct, err
		}
	}
	script, rels, want := w.job(s, k)
	if err := s.u.WriteFile(s.host, w.script(s), []byte(script)); err != nil {
		return ct, err
	}
	ws := s.c.Workspace(w.root(s))
	ct.start = time.Now()
	st, err := ws.Sync(ctx)
	if err != nil {
		return ct, fmt.Errorf("sync: %w", err)
	}
	ct.synced, ct.sync = time.Now(), st
	return submitWait(ctx, s, ct, func() (uint64, error) {
		return ws.Submit(ctx, w.script(s), rels, outputOpts)
	}, want)
}

// leaves is the workspace's tree summary input after cycle k.
func (w *workspaceSync) leaves(s *session, k int) []tree.Leaf {
	files := w.files[s.idx]
	if w.fps[s.idx] == nil {
		fps := make([][2]chunk.Hash, len(files))
		for f, file := range files {
			for v := range file.body {
				fps[f][v] = chunk.Split(file.body[v], chunk.DefaultParams).Fingerprint()
			}
		}
		w.fps[s.idx] = fps
	}
	out := make([]tree.Leaf, len(files))
	for f, file := range files {
		out[f] = tree.Leaf{Path: file.rel, Hash: w.fps[s.idx][f][w.variantAt(s, f, k)]}
	}
	return out
}

func (w *workspaceSync) replay(rp *replayer, s *session, k, parent int) error {
	files := w.files[s.idx]
	group := w.groups[s.idx][k%wsRounds]
	v := w.variantAt(s, group[0], k)
	pairs := make([][2][]byte, len(group))
	curs := make([][]byte, len(group))
	for i, f := range group {
		pairs[i] = [2][]byte{files[f].body[1-v], files[f].body[v]}
		curs[i] = files[f].body[v]
	}
	enc, err := rp.diffPairs(parent, pairs)
	if err != nil {
		return err
	}
	rp.split(parent, curs)

	base := uint64(s.idx) << 32
	puts := make([]cacheItem, len(group))
	for i, f := range group {
		puts[i] = cacheItem{naming.ShadowID(base + uint64(f)), uint64(k + 1), curs[i]}
	}
	if err := rp.cachePutGet(parent, puts, []naming.ShadowID{puts[0].id, puts[1].id}); err != nil {
		return err
	}

	// The client commits every file of the tree on each Sync; prime the
	// replay store with the state before this cycle, then time the commit.
	rootName, err := s.u.Resolve(s.host, w.root(s))
	if err != nil {
		return err
	}
	refs := make([]wire.FileRef, len(files))
	curC := make([][]byte, len(files))
	for f, file := range files {
		refs[f] = wire.FileRef{Domain: s.u.Domain(), FileID: rootName.String() + "/" + file.rel}
		curC[f] = file.body[w.variantAt(s, f, k)]
		rp.store.Commit(refs[f], file.body[w.variantAt(s, f, k-1)])
	}
	rp.commit(parent, refs, curC)

	script, rels, want := w.job(s, k)
	if err := rp.resolve(parent, func() error {
		if _, _, err := s.u.FilesUnder(s.host, w.root(s)); err != nil {
			return err
		}
		for _, rel := range rels {
			if _, err := s.u.FileRef(s.host, w.root(s)+"/"+rel); err != nil {
				return err
			}
		}
		_, err := s.u.FileRef(s.host, w.script(s))
		return err
	}); err != nil {
		return err
	}

	// Tree summary on both sides, then the divergence walk a sync makes.
	prevLeaves, curLeaves := w.leaves(s, k-1), w.leaves(s, k)
	prevTree := tree.Build(prevLeaves)
	var curTree *tree.Tree
	build := rp.timed("tree.build", parent, func() { curTree = tree.Build(curLeaves) })
	changed := 0
	walk := rp.timed("tree.diff", parent, func() {
		want := []string{""}
		for len(want) > 0 {
			var next []string
			for _, dir := range want {
				local, _ := curTree.Entries(dir)
				remote, _ := prevTree.Entries(dir)
				d := tree.Diff(dir, local, remote)
				changed += len(d.ChangedFiles)
				next = append(next, d.WalkBoth...)
			}
			want = next
		}
	})
	if changed != len(group) {
		return fmt.Errorf("tree.Diff replay found %d changed files, want %d", changed, len(group))
	}
	rp.put("tree.build_ms", us(build)/1e3)
	rp.put("tree.diff_ms", us(walk)/1e3)

	ver := uint64(k + 1)
	msgs := []wire.Message{&wire.TreeHead{Root: rootName.String(), Hash: curTree.Root(), Count: uint32(curTree.Count())}}
	batch := &wire.BatchNotify{}
	inputs := map[string][]byte{}
	var jobInputs []wire.JobInput
	for i, f := range group {
		ref := refs[f]
		batch.Notifies = append(batch.Notifies, wire.NotifyEntry{File: ref, Version: ver, Size: int64(len(curs[i])), Sum: crc(curs[i])})
		msgs = append(msgs,
			&wire.Pull{File: ref, HaveVersion: ver - 1, WantVersion: ver},
			&wire.FileDelta{File: ref, BaseVersion: ver - 1, Version: ver, Encoded: enc[i]})
		if i < 2 {
			name := path.Base(files[f].rel)
			inputs[name] = curs[i]
			jobInputs = append(jobInputs, wire.JobInput{File: ref, Version: ver, As: name})
		}
	}
	msgs = append(msgs, batch, &wire.Submit{Script: []byte(script), Inputs: jobInputs}, outputFrame(ver, want))
	if err := rp.frames(parent, msgs); err != nil {
		return err
	}
	return rp.execute(parent, script, inputs, want)
}

// --- cold-commit --------------------------------------------------------

// coldCommit is first-sight uploads: each cycle submits a new run directory
// whose 64 KB input is the previous run's input with 2% of its lines
// edited, against a cache smaller than the live working set.
type coldCommit struct {
	ring [sessions][][]byte
	sums [sessions][]uint32
}

const (
	ccInputBytes = 64 << 10
	ccEditShare  = 0.02
	// ccLive run directories stay live per session (16 x 64 KB in all);
	// older ones leave the universe and the client's version store.
	ccLive = 8
	// ccCacheBytes is shadowd's -cache, below the live working set.
	ccCacheBytes = 256 << 10
	ccScript     = "checksum input.dat\n"
)

func (w *coldCommit) cacheBytes() int64 { return ccCacheBytes }

// warmCycles runs until eviction is steady: 40 cycles per session insert
// several times the cache's capacity.
func (w *coldCommit) warmCycles() int { return 40 }

func (w *coldCommit) build(rng *rand.Rand) {
	for i := range w.ring {
		w.ring[i], w.sums[i] = editRing(rng, ccInputBytes, ccEditShare)
	}
}

func (w *coldCommit) input(s *session, k int) string {
	return fmt.Sprintf("/runs/%s/r%06d/input.dat", s.user, k)
}
func (w *coldCommit) script(s *session) string { return "/runs/" + s.user + "/run.job" }

func (w *coldCommit) stage(u *shadow.Universe, ss []*session) error {
	for _, s := range ss {
		if err := u.WriteFile(s.host, w.script(s), []byte(ccScript)); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldCommit) cycle(ctx context.Context, s *session, k int) (cycleTiming, error) {
	ring := w.ring[s.idx]
	if err := s.u.WriteFile(s.host, w.input(s, k), ring[k%len(ring)]); err != nil {
		return cycleTiming{}, err
	}
	if old := k - ccLive; old >= 0 {
		ref, err := s.u.FileRef(s.host, w.input(s, old))
		if err != nil {
			return cycleTiming{}, err
		}
		if err := s.u.RemoveFile(s.host, w.input(s, old)); err != nil {
			return cycleTiming{}, err
		}
		s.c.Store().Forget(ref)
	}
	want := []expect{{"input.dat", w.sums[s.idx][k%len(ring)]}}
	return notifySubmitWait(ctx, s, w.script(s), []string{w.input(s, k)}, want)
}

func (w *coldCommit) replay(rp *replayer, s *session, k, parent int) error {
	ring := w.ring[s.idx]
	cur := ring[k%len(ring)]
	// A first-sight upload has no base version: no diff runs.
	rp.put("diff.compute_us", 0)
	rp.put("diff.apply_us", 0)
	rp.split(parent, [][]byte{cur})

	// Bring the replay cache to this cycle's steady state untimed: the
	// previous live runs resident, older ones evicted by capacity.
	id := func(j int) naming.ShadowID { return naming.ShadowID(uint64(s.idx)<<32 | uint64(j)) }
	for j := max(0, k-ccLive); j < k; j++ {
		_ = rp.cache.Put(id(j), 1, ring[j%len(ring)])
	}
	if err := rp.cachePutGet(parent, []cacheItem{{id(k), 1, cur}}, []naming.ShadowID{id(k)}); err != nil {
		return err
	}

	var ref wire.FileRef
	if err := rp.resolve(parent, func() (err error) {
		if ref, err = s.u.FileRef(s.host, w.input(s, k)); err != nil {
			return err
		}
		_, err = s.u.FileRef(s.host, w.script(s))
		return err
	}); err != nil {
		return err
	}
	rp.commit(parent, []wire.FileRef{ref}, [][]byte{cur})
	rp.store.Forget(ref)

	want := []expect{{"input.dat", w.sums[s.idx][k%len(ring)]}}
	if err := rp.frames(parent, []wire.Message{
		&wire.Notify{File: ref, Version: 1, Size: int64(len(cur)), Sum: crc(cur)},
		&wire.Pull{File: ref, WantVersion: 1},
		&wire.FileFull{File: ref, Version: 1, Content: cur, Sum: crc(cur)},
		&wire.Submit{Script: []byte(ccScript), Inputs: []wire.JobInput{{File: ref, Version: 1, As: "input.dat"}}},
		outputFrame(uint64(k+1), want),
	}); err != nil {
		return err
	}
	return rp.execute(parent, ccScript, map[string][]byte{"input.dat": cur}, want)
}
