package ris

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"stopandstare/internal/diffusion"
	"stopandstare/internal/gen"
	"stopandstare/internal/graph"
)

// mappedRSS sums the resident bytes of this process's mappings of the file
// at path, read from /proc/self/smaps, and counts those mappings. A spill
// file is unlinked at creation, so its mappings carry a " (deleted)" suffix.
func mappedRSS(t *testing.T, path string) (rss int64, mappings int) {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if !strings.HasSuffix(fields[0], ":") { // a mapping's header line
			in = len(fields) >= 6 && fields[5] == path
			if in {
				mappings++
			}
			continue
		}
		if in && fields[0] == "Rss:" && len(fields) >= 2 {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps Rss line %q: %v", sc.Text(), err)
			}
			rss += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rss, mappings
}

// TestSpilledBlocksNotResident pins that a checked block mapping leaves the
// resident set: after SpillTo(0) the spill file's mappings hold about no
// resident page although mapBlock read every one to verify its CRC; reading
// one set faults in its own pages (and the folios around them), not the
// file; and a recovered store's snapshot mappings start the same.
func TestSpilledBlocksNotResident(t *testing.T) {
	g, err := gen.ErdosRenyi(20000, 120000, 3, graph.BuildOptions{Model: graph.WeightedCascade})
	if err != nil {
		t.Fatal(err)
	}
	s := mustSampler(t, g, diffusion.IC)
	st := spilledStore(t, s, 7, 0, 1<<40) // growth never spills; SpillTo does
	st.GenerateTo(100000)
	if err := st.SpillTo(0); err != nil {
		t.Fatal(err)
	}
	const slack = 64 << 10
	// A read fault maps the page's whole page-cache folio, which file systems
	// with large folios make up to one PMD (2 MB); the set may straddle two.
	const faultLimit = 4 << 20
	spilled := st.SpillStats().SpilledBytes
	spillPath := st.(*ShardedCollection).spill.f.path
	rss, maps := mappedRSS(t, spillPath)
	if maps == 0 || spilled < 4*faultLimit {
		t.Fatalf("%d mappings of %s, %d bytes spilled: nothing to measure", maps, spillPath, spilled)
	}
	if rss > slack {
		t.Fatalf("after SpillTo(0) the spill file's %d mappings hold %d KB resident of %d KB spilled", maps, rss>>10, spilled>>10)
	}

	sum := 0
	for _, u := range st.Set(50000) {
		sum += int(u)
	}
	if rss, _ = mappedRSS(t, spillPath); rss == 0 || rss > faultLimit {
		t.Fatalf("reading one set (node sum %d) left %d KB of the spill file resident", sum, rss>>10)
	}
	t.Logf("%d KB spilled; %d KB resident after reading one set", spilled>>10, rss>>10)

	dir := t.TempDir()
	if _, err := st.Persist(dir); err != nil {
		t.Fatal(err)
	}
	rec, info, err := Recover(s, 7, StoreOptions{Workers: 2}, dir)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := rec.(*ShardedCollection).segs[0].snap.path
	if rss, maps = mappedRSS(t, snapPath); maps == 0 || rss > slack {
		t.Fatalf("a recovered store's %d snapshot mappings hold %d KB resident of a %d KB snapshot", maps, rss>>10, info.SnapshotBytes>>10)
	}
	runtime.KeepAlive(rec)
	runtime.KeepAlive(st)
}
