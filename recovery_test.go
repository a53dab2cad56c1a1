package incentivetag

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"incentivetag/internal/tagstore"
)

// liveEvents builds a deterministic single-writer post stream over the
// corpus's recorded future posts.
func liveEvents(ds *Dataset, n int) []PostEvent {
	rng := rand.New(rand.NewSource(42))
	cursor := make([]int, ds.N())
	for i := range cursor {
		cursor[i] = ds.Resources[i].Initial
	}
	out := make([]PostEvent, 0, n)
	for len(out) < n {
		i := rng.Intn(ds.N())
		r := &ds.Resources[i]
		k := cursor[i]
		p := r.Seq[len(r.Seq)-1]
		if k < len(r.Seq) {
			p = r.Seq[k]
		}
		cursor[i]++
		out = append(out, PostEvent{Resource: i, Post: p})
	}
	return out
}

// assertServicesBitIdentical compares every observable metric of two
// services, bit for bit.
func assertServicesBitIdentical(t *testing.T, want, got *Service) {
	t.Helper()
	mw, mg := want.Snapshot(), got.Snapshot()
	if mw != mg {
		t.Fatalf("metric snapshots differ:\nwant %+v\ngot  %+v", mw, mg)
	}
	if math.Float64bits(want.Quality()) != math.Float64bits(got.Quality()) {
		t.Fatalf("quality differs: %v != %v", want.Quality(), got.Quality())
	}
	for i := 0; i < want.N(); i++ {
		if want.Count(i) != got.Count(i) {
			t.Fatalf("resource %d count %d != %d", i, want.Count(i), got.Count(i))
		}
	}
}

// copyDir clones a durable state directory — the crash image of a
// process killed after its last acknowledged post (every commit is
// flushed to the OS before acknowledgement).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// durableOpts disables the background snapshotter so tests control
// exactly when snapshots exist.
func durableOpts(dir string) ServiceOptions {
	return ServiceOptions{Strategy: "FP", WALDir: dir, SnapshotInterval: -1}
}

// TestServiceReopenRecovers is the regression test for the pre-durability
// bug: NewService on an existing non-empty WALDir re-primed the corpus
// prefix while the logged live posts sat unreplayed, silently diverging
// from the service that wrote them (and double-logging on further
// ingest). Reopening must now reproduce the closed service exactly —
// through the final snapshot, and through a bare log when no snapshot
// survives.
func TestServiceReopenRecovers(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	svc, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	events := liveEvents(ds, 400)
	for _, ev := range events {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	want := svc.Snapshot()
	wantQ := svc.Quality()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen 1: recovery through the final snapshot Close wrote.
	re, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := re.RecoveryStats()
	if !rec.Recovered || !rec.SnapshotLoaded || rec.SnapshotSeq != 400 || rec.ReplayedRecords != 0 {
		t.Fatalf("snapshot recovery stats: %+v", rec)
	}
	if rec.RecoveredPosts != 400 {
		t.Fatalf("recovered %d posts, want 400", rec.RecoveredPosts)
	}
	if m := re.Snapshot(); m != want {
		t.Fatalf("reopened metrics differ:\nwant %+v\ngot  %+v", want, m)
	}
	if math.Float64bits(re.Quality()) != math.Float64bits(wantQ) {
		t.Fatalf("reopened quality %v != %v", re.Quality(), wantQ)
	}
	// The reopened service keeps serving: further ingest appends to the
	// same log without double-applying history.
	if err := re.Ingest(events[0].Resource, events[0].Post); err != nil {
		t.Fatal(err)
	}
	if got := re.Snapshot().Posts; got != want.Posts+1 {
		t.Fatalf("posts after reopen+ingest = %d, want %d", got, want.Posts+1)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen 2: delete every snapshot — recovery must fall back to a
	// full log replay and land on the same state.
	snaps, err := tagstore.ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("Close left no snapshot")
	}
	for _, sn := range snaps {
		if err := os.Remove(filepath.Join(dir, sn.Name)); err != nil {
			t.Fatal(err)
		}
	}
	re2, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	rec = re2.RecoveryStats()
	if !rec.Recovered || rec.SnapshotLoaded || rec.ReplayedRecords != 401 {
		t.Fatalf("log-replay recovery stats: %+v", rec)
	}
	if got := re2.Snapshot().Posts; got != want.Posts+1 {
		t.Fatalf("log-replay posts = %d, want %d", got, want.Posts+1)
	}
}

// TestServiceRecoverySnapshotPlusTail kills the service (crash image =
// directory copy; every acknowledged post is flushed) after a manual
// snapshot plus further traffic: recovery must load the snapshot and
// replay exactly the tail, reproducing the live service bit for bit.
func TestServiceRecoverySnapshotPlusTail(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	svc, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	events := liveEvents(ds, 600)
	for _, ev := range events[:450] {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	res, err := svc.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped || res.LastSeq != 450 || res.Bytes == 0 {
		t.Fatalf("snapshot result: %+v", res)
	}
	// Idempotent: no new records, no new snapshot.
	if res2, err := svc.SnapshotNow(); err != nil || !res2.Skipped {
		t.Fatalf("repeat snapshot: %+v err=%v", res2, err)
	}
	for _, ev := range events[450:] {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}

	crash := copyDir(t, dir)
	re, err := NewService(ds, durableOpts(crash))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rec := re.RecoveryStats()
	if !rec.SnapshotLoaded || rec.SnapshotSeq != 450 || rec.ReplayedRecords != 150 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	assertServicesBitIdentical(t, svc, re)
	if stats := svc.RecoveryStats(); stats.SnapshotsTaken != 1 {
		t.Fatalf("live service snapshot counter: %+v", stats)
	}
}

// TestServiceRecoveryCrashPointOracle truncates the crash image's log at
// arbitrary byte offsets and asserts that recovery always lands exactly
// on the committed prefix: metrics bit-identical to an oracle service
// fed only the records that survived the cut.
func TestServiceRecoveryCrashPointOracle(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	svc, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	events := liveEvents(ds, 250)
	for _, ev := range events {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}

	seg := filepath.Join(dir, "seg-000001.log")
	size, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		off := int64(rng.Intn(int(size.Size()) + 1))
		crash := copyDir(t, dir)
		if err := os.Truncate(filepath.Join(crash, "seg-000001.log"), off); err != nil {
			t.Fatal(err)
		}
		re, err := NewService(ds, durableOpts(crash))
		if err != nil {
			t.Fatal(err)
		}
		n := re.RecoveryStats().ReplayedRecords
		if n > len(events) {
			t.Fatalf("offset %d: replayed %d of %d events", off, n, len(events))
		}
		// Oracle: a fresh, log-less service fed exactly the committed
		// prefix.
		oracle, err := NewService(ds, ServiceOptions{Strategy: "FP"})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events[:n] {
			if err := oracle.Ingest(ev.Resource, ev.Post); err != nil {
				t.Fatal(err)
			}
		}
		assertServicesBitIdentical(t, oracle, re)
		re.Close()
		oracle.Close()
	}
}

// TestServiceRecoveryRejectsForeignState: a durable directory is bound
// to its dataset; reopening it against a different corpus must fail
// loudly, never silently diverge.
func TestServiceRecoveryRejectsForeignState(t *testing.T) {
	ds := testDS(t)
	dir := t.TempDir()
	svc, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range liveEvents(ds, 50) {
		if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Snapshot path: a restricted corpus has a different resource count.
	opts := durableOpts(dir)
	opts.Resources = 30
	if _, err := NewService(ds, opts); err == nil {
		t.Fatal("snapshot restored against a smaller corpus")
	}
	// Pure-log path: with snapshots gone, replay must still catch
	// records targeting resources outside the corpus.
	snaps, err := tagstore.ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if err := os.Remove(filepath.Join(dir, sn.Name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := NewService(ds, opts); err == nil {
		t.Fatal("foreign log replayed against a smaller corpus")
	}
	// Mismatched omega changes the engine configuration the snapshot
	// demands.
	svc2, err := NewService(ds, durableOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	opts = durableOpts(dir)
	opts.Omega = 7
	if _, err := NewService(ds, opts); err == nil {
		t.Fatal("snapshot restored under a different omega")
	}
}

// assertRestoreEquivalent compares a restored service with the
// never-restarted one that wrote its directory on every surface a client
// can read: metrics and per-resource counts, plus full /topk rankings
// down to the score's float bits.
func assertRestoreEquivalent(t *testing.T, ctx string, live, re *Service) {
	t.Helper()
	assertServicesBitIdentical(t, live, re)
	for i := 0; i < live.N(); i++ {
		want, _, err := live.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := re.TopK(i, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: topk %d: %d results, want %d", ctx, i, len(got), len(want))
		}
		for r := range want {
			if got[r].ID != want[r].ID || math.Float64bits(got[r].Score) != math.Float64bits(want[r].Score) {
				t.Fatalf("%s: topk %d rank %d: (%d, %v), want (%d, %v)",
					ctx, i, r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
			}
		}
	}
}

// TestServiceRestoreEquivalence pins the one restore path over every
// shape a durable directory can take, with and without a residency
// budget: the restored service equals the never-restarted one that wrote
// the directory, recovery starts every snapshot-carried resource cold
// and rehydrates exactly what the log tail touches, an unbudgeted node
// converges to all-resident under traffic, and Close releases the
// mapping.
func TestServiceRestoreEquivalence(t *testing.T) {
	ds := testDS(t)
	events := liveEvents(ds, 300)
	ingest := func(t *testing.T, svc *Service, evs []PostEvent) {
		t.Helper()
		for _, ev := range evs {
			if err := svc.Ingest(ev.Resource, ev.Post); err != nil {
				t.Fatal(err)
			}
		}
	}
	snapshot := func(t *testing.T, svc *Service) {
		t.Helper()
		if res, err := svc.SnapshotNow(); err != nil || res.Skipped {
			t.Fatalf("snapshot: %+v err=%v", res, err)
		}
	}
	scenarios := []struct {
		name string
		// drive feeds all of events to the live service, snapshotting
		// along the way.
		drive        func(t *testing.T, live *Service)
		damageNewest bool
		want         RecoveryStats
	}{
		{
			name:  "no snapshot + log",
			drive: func(t *testing.T, live *Service) { ingest(t, live, events) },
			want:  RecoveryStats{Recovered: true, ReplayedRecords: 300},
		},
		{
			name: "snapshot only",
			drive: func(t *testing.T, live *Service) {
				ingest(t, live, events)
				snapshot(t, live)
			},
			want: RecoveryStats{Recovered: true, SnapshotLoaded: true, SnapshotSeq: 300},
		},
		{
			name: "snapshot + tail",
			drive: func(t *testing.T, live *Service) {
				ingest(t, live, events[:280])
				snapshot(t, live)
				ingest(t, live, events[280:])
			},
			want: RecoveryStats{Recovered: true, SnapshotLoaded: true, SnapshotSeq: 280, ReplayedRecords: 20},
		},
		{
			name: "damaged newest snapshot → fallback",
			drive: func(t *testing.T, live *Service) {
				ingest(t, live, events[:250])
				snapshot(t, live)
				ingest(t, live, events[250:280])
				snapshot(t, live)
				ingest(t, live, events[280:])
			},
			damageNewest: true,
			want:         RecoveryStats{Recovered: true, SnapshotLoaded: true, SnapshotSeq: 250, SnapshotsSkipped: 1, ReplayedRecords: 50},
		},
	}
	budgets := []struct {
		name        string
		maxResident int
	}{{"no budget", 0}, {"MaxResidentResources 8", 8}}

	for _, sc := range scenarios {
		for _, bd := range budgets {
			t.Run(sc.name+"/"+bd.name, func(t *testing.T) {
				live, err := NewService(ds, durableOpts(t.TempDir()))
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()
				sc.drive(t, live)

				crash := copyDir(t, live.walDir)
				if sc.damageNewest {
					snaps, err := tagstore.ListSnapshots(crash)
					if err != nil || len(snaps) < 2 {
						t.Fatalf("want ≥ 2 snapshots to damage the newest: %v err=%v", snaps, err)
					}
					path := filepath.Join(crash, snaps[len(snaps)-1].Name)
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					raw[len(raw)/2] ^= 0xff
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				opts := durableOpts(crash)
				opts.MaxResidentResources = bd.maxResident
				opts.TierInterval = -1
				re, err := NewService(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()

				rec := re.RecoveryStats()
				if (rec.ReplayBytes > 0) != (sc.want.ReplayedRecords > 0) {
					t.Fatalf("replay bytes %d for %d replayed records", rec.ReplayBytes, sc.want.ReplayedRecords)
				}
				rec.ReplayBytes, rec.ReplayMillis = 0, 0
				want := sc.want
				want.RecoveredPosts = len(events)
				if rec != want {
					t.Fatalf("recovery stats:\nwant %+v\ngot  %+v", want, rec)
				}

				// Cold at boot is exactly what the snapshot carried and the
				// tail did not touch — whatever the budget.
				wantCold, wantRehydrated := 0, 0
				if sc.want.SnapshotLoaded {
					touched := make(map[int]bool)
					for _, ev := range events[sc.want.SnapshotSeq:] {
						touched[ev.Resource] = true
					}
					wantCold, wantRehydrated = ds.N()-len(touched), len(touched)
					if wantCold == 0 {
						t.Fatal("scenario leaves nothing cold; shorten its tail")
					}
				}
				st := re.Residency()
				if st.Cold != wantCold || st.Rehydrations != uint64(wantRehydrated) {
					t.Fatalf("boot residency: want %d cold, %d rehydrated: %+v", wantCold, wantRehydrated, st)
				}
				if st.Enabled != (bd.maxResident > 0) || st.RehydrateCount != st.Rehydrations {
					t.Fatalf("tier stats: %+v", st)
				}
				if (re.mapped != nil) != sc.want.SnapshotLoaded {
					t.Fatalf("mapping held = %v, snapshot loaded = %v", re.mapped != nil, sc.want.SnapshotLoaded)
				}
				assertRestoreEquivalent(t, "at boot", live, re)
				if got := re.Residency().Cold; got != wantCold {
					t.Fatalf("reads changed engine residency: %d cold, want %d", got, wantCold)
				}

				// One post to every resource: the unbudgeted node ends fully
				// resident (it never evicts); the budgeted one is held to its
				// budget by the policy. Answers stay equal either way.
				cursor := startCursor(ds)
				for _, ev := range events {
					cursor[ev.Resource]++
				}
				for i := 0; i < ds.N(); i++ {
					p := nextPost(ds, cursor, i)
					if err := live.Ingest(i, p); err != nil {
						t.Fatal(err)
					}
					if err := re.Ingest(i, p); err != nil {
						t.Fatal(err)
					}
				}
				if bd.maxResident == 0 {
					if st := re.Residency(); st.Cold != 0 || st.Evictions != 0 {
						t.Fatalf("unbudgeted node after touching everything: %+v", st)
					}
					if _, err := re.TierNow(); err == nil {
						t.Fatal("TierNow ran without a residency budget")
					}
				} else {
					if _, err := re.TierNow(); err != nil {
						t.Fatal(err)
					}
					if st := re.Residency(); st.Resident > bd.maxResident {
						t.Fatalf("TierNow left %d resident, budget %d", st.Resident, bd.maxResident)
					}
				}
				assertRestoreEquivalent(t, "after touching every resource", live, re)

				m := re.mapped
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
				if re.mapped != nil || (m != nil && m.Payload != nil) {
					t.Fatal("Close did not release the snapshot mapping")
				}
			})
		}
	}
}
