// Package plants is the planted-bug table: each row is a one-site edit that
// puts back a bug this cache once had, or breaks a rule an analyzer
// enforces, together with the checks that must catch it. TestPlants applies
// each row to a copy of the module, never to the tree, runs the named
// checks in that copy, and requires exactly the listed ones to fail, so the
// table cannot rot: a row whose old text no longer matches fails loudly,
// and so does a check that starts or stops catching its plant.
//
// Plain `go test` runs only the rows that stand in for a deleted test,
// against the one check they stand in for. MUTANTS=1 runs every row against
// every check and logs the table as markdown (about 15 minutes on two
// shared CPUs with GOFLAGS=-count=1, less when go test reuses cached
// results; give the run -timeout 60m).
package plants

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// A plant is one edit to one file of the module, and what catches it.
type plant struct {
	name     string
	file     string // slash-separated, from the module root
	old, new string
	// caught lists the checks that fail under the plant, in the order of
	// checks; an analyzer's finding counts as "lint:<analyzer>".
	caught []string
	// tier1 names the one check plain `go test` runs this row against,
	// standing in for a deleted test; empty for a row run only by MUTANTS=1.
	tier1 string
	// want maps a check to a pattern that must match exactly one line of
	// its output.
	want map[string]string
}

// table holds every plant. The bugs cite the CHANGES.md entry that fixed
// them; DESIGN.md §10 has the same table in prose.
var table = []plant{
	{
		name: "gc-round-barrier",
		file: "internal/src/gc.go",
		old: `		done, err := c.drainDirty(readDone)
		if err != nil {
			return err
		}
		if _, err := c.flushSSDs(done); err != nil {
			return err
		}
		if err := c.reclaim(at, victim)`,
		new:    `		if err := c.reclaim(at, victim)`,
		caught: []string{"digests", "chaos50", "chaos200", "matrix12"},
	},
	{
		name: "replacessd-stamp-flush",
		file: "internal/src/rebuild.go",
		old: `	t, err := fresh.Flush(done)
	if err != nil {
		return done, fmt.Errorf("superblock flush: %w", err)
	}
	c.startRebuild(col)
	return t, nil`,
		new: `	c.startRebuild(col)
	return done, nil`,
		caught: []string{"src"},
	},
	{
		name: "finishrebuild-drain", // PR 3
		file: "internal/src/rebuild.go",
		old: `	t, err := c.drainDirty(done)
	if err != nil {
		return done, err
	}
	t, err = c.flushSSDs(vtime.Max(done, t))`,
		new:    `	t, err := c.flushSSDs(done)`,
		caught: []string{"chaos50", "chaos200"},
	},
	{
		name:   "gc-policy-flush", // PR 3
		file:   "internal/src/segment.go",
		old:    `	if !c.inGC && c.rebuild == nil && (c.cfg.Flush == FlushPerSegment || seg == c.lay.segsPerSG-1) {`,
		new:    `	if c.cfg.Flush == FlushPerSegment || seg == c.lay.segsPerSG-1 {`,
		caught: []string{"digests"},
	},
	{
		name:   "abandon-unwind", // PR 3
		file:   "internal/src/segment.go",
		old:    `			return c.abandonSegment(at, sg, seg, buf, slots, dirty, werr)`,
		new:    "			failedCols = append(failedCols, col)\n\t\t\tcontinue",
		caught: []string{"src"},
	},
	{
		name: "superblock-member-flush",
		file: "internal/src/segment.go",
		old: `		if _, err := dev.Flush(0); err != nil {
			return fmt.Errorf("superblock flush: %w", err)
		}
`,
		new:    ``,
		caught: []string{"digests", "chaos50", "chaos200"},
	},
	{
		name: "snapshot-before-alloc", // PR 5
		file: "internal/src/segment.go",
		old: `	sg, seg, err := c.allocSegment(at)
	if err != nil {
		return at, err
	}
	if buf.Empty() {
		// GC ran during allocation and its drain sealed this buffer
		// already; hand the unused segment back.
		c.nextSeg--
		return at, nil
	}
	// The taken slots become the next seal's spare at once: nothing below
	// seals another segment before this call returns.
	slots := buf.Take(c.scratch.slots)
	c.scratch.slots = slots
`,
		new: `	slots := buf.Take(nil)
	sg, seg, err := c.allocSegment(at)
	if err != nil {
		return at, err
	}
`,
		caught: []string{"src", "digests", "chaos50", "chaos200", "matrix12"},
	},
	{
		name:   "summary-crc",
		file:   "internal/src/metadata.go",
		old:    `	if crc32.ChecksumIEEE(body) != crc {`,
		new:    `	if false && crc32.ChecksumIEEE(body) != crc {`,
		caught: []string{"src"},
	},
	{
		name:   "summary-volume-bound",
		file:   "internal/src/metadata.go",
		old:    `lba != summaryFreeLBA && uint64(lba) >= uint64(pages) {`,
		new:    `false && lba != summaryFreeLBA && uint64(lba) >= uint64(pages) {`,
		caught: []string{"src"},
	},
	{
		name:   "summary-generation",
		file:   "internal/src/recover.go",
		old:    `				if me.gen != ms.gen {`,
		new:    `				if me == nil {`,
		caught: []string{"src"},
	},
	{
		name:   "first-column-wins", // PR 5
		file:   "internal/src/recover.go",
		old:    `				if rs == nil || ms.gen > rs.gen {`,
		new:    `				if rs == nil {`,
		caught: []string{"src"},
	},
	{
		name:   "oldest-wins",
		file:   "internal/src/recover.go",
		old:    `return segs[i].gen < segs[j].gen`,
		new:    `return segs[i].gen > segs[j].gen`,
		caught: []string{"src", "chaos50", "chaos200", "matrix12"},
		tier1:  "matrix12",
		// TestTortureBitesOldestWins's assertions: seed 1's
		// per-segment-group/PC/FIFO cell of the crash matrix reports one
		// violation, on the barrier tier, of torn-discarded, shrunk to the
		// empty schedule.
		want: map[string]string{"matrix12": `violation: per-segment-group/PC/FIFO seed 1 epoch \d+ \(op \d+, barrier tier\): torn-discarded: .*; shrunk schedule keeps \[0 0 0 0\] writes`},
	},
	{
		name: "recovered-parity", // PR 5
		file: "internal/src/recover.go",
		old: `	if err := c.repairRecoveredParity(segs); err != nil {
		return 0, err
	}
`,
		new:    ``,
		caught: []string{"chaos50", "chaos200"},
	},
	{
		name:   "recovered-seggens", // PR 5
		file:   "internal/src/recover.go",
		old:    "\tg.segGens[rs.seg] = rs.gen\n",
		new:    ``,
		caught: []string{"chaos50", "chaos200"},
	},
	{
		name:   "buffer-ratchet", // PR 15
		file:   "internal/src/buffer.go",
		old:    `return len(b.slots) >= b.capacity`,
		new:    `return len(b.slots) >= cap(b.slots)`,
		caught: []string{"src", "digests", "chaos50", "chaos200", "engine"},
	},
	{
		// gc recopies the groups its own copies filled and would livelock;
		// its bound on rounds fails src in seconds with ErrNoFreeGroups.
		name: "no-recopy",
		file: "internal/src/gc.go",
		old: `	if g.seq > since {
		return false
	}
`,
		new:    ``,
		caught: []string{"src"},
	},
	{
		// An eviction forgets the page's hot bit, so a page re-referenced
		// before it was dropped is cold when its refill meets a copy round.
		name:   "hot-bit-dropped-on-evict",
		file:   "internal/src/pagetable.go",
		old:    `		c.put(entry{})`,
		new:    `		*c = cell{}`,
		caught: []string{"src", "digests", "chaos50"},
	},
	{
		// The free-space edge: every Sel-GC copy round is admitted, even
		// one whose copies free space cannot absorb.
		name: "copyfits-admit-all",
		file: "internal/src/gc.go",
		old: `	return need <= free
`,
		new: `	return true || need <= free
`,
		caught: []string{"src", "engine"},
	},
	{
		name:   "validate-overflow", // PR 39
		file:   "internal/blockdev/blockdev.go",
		old:    `r.Off <= capacity-r.Len {`,
		new:    `r.Off+r.Len <= capacity {`,
		caught: []string{"blockdev"},
	},
	{
		// A rebuild that trusts the survivors' XOR: nothing judges the
		// column it writes, so a dirty page it cannot rebuild, or one in a
		// parityless segment, is lost without an error. Chaos sees it only
		// in its digest: no seed to 200 loses a page by it.
		name:   "rebuild-verify-free",
		file:   "internal/src/rebuild.go",
		old:    `	readDone, lost, err := c.readSSD(at, loc, col, colBase/blockdev.PageSize, c.lay.pagesPerCol)`,
		new:    `	readDone, err := c.reconstructColumns(at, col, colBase, c.cfg.SegmentColumn); lost := lostNone`,
		caught: []string{"src", "chaos50"},
	},
	{
		// A rebuild that writes a column whose survivors it could not all
		// read folds an unreadable survivor's tags into the new parity, and
		// that survivor's lost pages reconstruct again.
		name:   "rebuild-unread-survivor",
		file:   "internal/src/rebuild.go",
		old:    `	if lost == lostRun {`,
		new:    `	if false && lost == lostRun {`,
		caught: []string{"src"},
	},
	{
		// The rebuilt column forgets a clean page the read dropped, so an
		// older record of it in an unreclaimed group wins the next recovery.
		// gc's destruction order leaves no such record, so only the src
		// test that forces one catches it.
		name: "rebuild-drops-entry",
		file: "internal/src/degraded.go",
		old: `			e = summaryEntry{lba: lba, version: c.versions[lba], dirty: dirty}
`,
		new: `			if _, ok := c.mapping.get(lba); ok {
				e = summaryEntry{lba: lba, version: c.versions[lba], dirty: dirty}
			}
`,
		caught: []string{"src"},
	},
	{
		// Recovery frees groups without trimming them: a crash's remnants
		// there break the stripes of the next seal.
		name:   "recovery-trim",
		file:   "internal/src/recover.go",
		old:    `		for _, sg := range c.freeSGs {`,
		new:    `		for _, sg := range c.freeSGs[:0] {`,
		caught: []string{"chaos50"},
	},
	{
		name:   "double-fault", // PR 40
		file:   "internal/src/degraded.go",
		old:    `	if err == nil && tag != want {`,
		new:    `	if false && err == nil && tag != want {`,
		caught: []string{"src"},
	},
	{
		name:   "lint-determinism",
		file:   "internal/experiments/scheduler.go",
		old:    `	start := time.Now() //srclint:allow determinism progress timing only, never reaches result tables`,
		new:    `	start := time.Now()`,
		caught: []string{"lint:determinism"},
	},
	{
		name:   "lint-maprange",
		file:   "internal/cluster/supervisor/supervisor.go",
		old:    "\tids := make([]string, 0, len(s.nodes))\n\tfor id := range s.nodes {\n\t\tids = append(ids, id)\n\t}\n\tsort.Strings(ids)\n",
		new:    "\tids := make([]string, 0, len(s.nodes))\n\tfor id := range s.nodes {\n\t\tids = append(ids, id)\n\t}\n",
		caught: []string{"lint:maprange"},
	},
	{
		name: "lint-ioerr",
		file: "internal/src/segment.go",
		old: `		if _, err := dev.Flush(0); err != nil {
			return fmt.Errorf("superblock flush: %w", err)
		}`,
		new:    `		dev.Flush(0)`,
		caught: []string{"lint:ioerr"},
	},
	{
		name: "lint-lockheld",
		file: "internal/netblock/server.go",
		old: `			s.track(conn)
			defer s.untrack(conn)
			_ = s.ServeConn(conn)`,
		new: `			s.cmu.Lock()
			s.conns[conn] = struct{}{}
			_ = s.ServeConn(conn)
			s.cmu.Unlock()
			s.untrack(conn)`,
		caught: []string{"lint:lockheld", "netblock", "fleet"},
	},
	{
		// The client no longer replaces a connection a transport error
		// retired. Nothing else redials: the fleet, the chain backends and
		// the supervisor keep one client per member for good, so a member
		// that restarts stays unreachable through each of them.
		name:   "client-redial-skipped",
		file:   "internal/netblock/client.go",
		old:    "\tif !c.retired || c.addr == \"\" {",
		new:    "\tif true || !c.retired || c.addr == \"\" {",
		caught: []string{"netblock", "fleet"},
	},
	{
		// The served path's barrier reaches one shard: the others keep
		// their acknowledged writes in volatile segment buffers.
		name:   "engine-flush-one-shard",
		file:   "internal/engine/engine.go",
		old:    "\tfor _, s := range e.shards {\n\t\to := op{kind: kFlush}",
		new:    "\tfor _, s := range e.shards[:1] {\n\t\to := op{kind: kFlush}",
		caught: []string{"engine"},
	},
	{
		// The server acknowledges a client Flush without asking its
		// backend for the barrier.
		name: "netblock-flush-skips-backend",
		file: "internal/netblock/server.go",
		old: `	case opFlush:
		if err := s.backend.Flush(); err != nil {
			return refusal(err)
		}
		return statusOK, nil`,
		new: `	case opFlush:
		return statusOK, nil`,
		caught: []string{"netblock"},
	},
	{
		// A chain member applies a trim and forwards nothing: the other
		// replicas keep the discarded bytes.
		name:   "chain-trim-local-only",
		file:   "internal/cluster/fleet/fleet.go",
		old:    `	return b.forward(v, off, n, func(c cluster.Peer, off, n int64) error { return c.Trim(off, n) })`,
		new:    `	return nil`,
		caught: []string{"fleet"},
	},
}

// A check is one `go test` run in the patched copy. It catches a plant when
// the run fails; the lint check names the analyzers whose findings failed
// it instead.
type check struct {
	name string
	env  []string
	args []string
}

var checks = []check{
	{name: "lint", args: []string{"-run", "^TestTreeClean$", "./internal/analysis/driver"}},
	{name: "src", args: []string{"-skip", "^TestReclaimTrafficPinned$", "./internal/src"}},
	{name: "digests", args: []string{"-run", "^TestReclaimTrafficPinned$", "./internal/src"}},
	{name: "blockdev", args: []string{"./internal/blockdev"}},
	{name: "chaos50", args: []string{"./internal/chaos"}},
	{name: "chaos200", env: []string{"CHAOS_SEEDS=200"}, args: []string{"-run", "^TestChaos$", "./internal/chaos"}},
	{name: "matrix12", env: []string{"CHAOS_MATRIX_SEEDS=12"}, args: []string{"-run", "^TestChaosMatrix$", "./internal/chaos"}},
	{name: "engine", args: []string{"./internal/engine"}},
	{name: "netblock", args: []string{"./internal/netblock"}},
	{name: "fleet", args: []string{"./internal/cluster/fleet"}},
}

// checkTimeout bounds one check, so a plant that hangs one fails by it
// instead of hanging the run. The slowest clean check takes about 10 s on
// two CPUs.
const checkTimeout = "90s"

// finding matches one line of TestTreeClean's output and captures the
// analyzer that reported it.
var finding = regexp.MustCompile(`\.go:\d+:\d+: \[(\w+)\] `)

// run runs c in the module copy at dir and returns the names of the checks
// that failed, and the output.
func (c check) run(t *testing.T, dir string) ([]string, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"test", "-timeout", checkTimeout}, c.args...)...)
	cmd.Dir = dir
	cmd.Env = append(environ(), c.env...)
	b, err := cmd.CombinedOutput()
	out := string(b)
	var exit *exec.ExitError
	switch {
	case err == nil:
		return nil, out
	case !errors.As(err, &exit) || strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
		t.Fatalf("check %s did not run: %v\n%s", c.name, err, out)
	case c.name != "lint":
		return []string{c.name}, out
	}
	var names []string
	for _, m := range finding.FindAllStringSubmatch(out, -1) {
		names = append(names, "lint:"+m[1])
	}
	if len(names) == 0 {
		t.Fatalf("check lint failed without a finding:\n%s", out)
	}
	slices.Sort(names)
	return slices.Compact(names), out
}

// environ is the checks' environment: this process's without the sweep
// sizes a caller may have set, and with -trimpath, so the build cache
// serves every package a plant leaves alone whatever the copy's path.
func environ() []string {
	var env []string
	flags := "-trimpath"
	for _, kv := range os.Environ() {
		k, v, _ := strings.Cut(kv, "=")
		switch k {
		case "CHAOS_SEEDS", "CHAOS_MATRIX_SEEDS":
		case "GOFLAGS":
			flags = v + " " + flags
		default:
			env = append(env, kv)
		}
	}
	return append(env, "GOFLAGS="+flags)
}

// copyModule copies the module's files, the nested benchmark module and
// dot-directories aside, into a temporary directory and returns it.
func copyModule(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "benchmark"):
			return filepath.SkipDir
		case d.IsDir():
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		case !d.Type().IsRegular():
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// apply writes p into the copy at dir and returns the function that takes
// it out again.
func (p plant) apply(t *testing.T, dir string) (restore func()) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(p.file))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(orig), p.old); n != 1 {
		t.Fatalf("plant %s: its old text occurs %d times in %s, want once", p.name, n, p.file)
	}
	write := func(b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write([]byte(strings.Replace(string(orig), p.old, p.new, 1)))
	return func() { write(orig) }
}

// TestPlants runs the table; see the package comment.
func TestPlants(t *testing.T) {
	all := os.Getenv("MUTANTS") == "1"
	dir := copyModule(t)
	rows := []string{"| plant | caught by |", "|---|---|"}
	for _, p := range table {
		t.Run(p.name, func(t *testing.T) {
			restore := p.apply(t, dir)
			defer restore()
			run, want := checks, p.caught
			if !all {
				if p.tier1 == "" {
					return // the old text matched: the row still applies
				}
				run = slices.DeleteFunc(slices.Clone(checks), func(c check) bool { return c.name != p.tier1 })
				want = []string{p.tier1}
			}
			var got []string
			for _, c := range run {
				caught, out := c.run(t, dir)
				got = append(got, caught...)
				if pat, ok := p.want[c.name]; ok {
					if n := len(regexp.MustCompile(`(?m)`+pat).FindAllString(out, -1)); n != 1 {
						t.Errorf("check %s: %d lines match %q, want 1:\n%s", c.name, n, pat, out)
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("caught by %v, the row says %v", got, want)
			}
			rows = append(rows, fmt.Sprintf("| %s | %s |", p.name, strings.Join(got, ", ")))
		})
	}
	if all {
		for _, r := range rows {
			t.Log(r)
		}
	}
}
