package routeviews

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

func fixture(t *testing.T) (*topogen.Topology, []bgp.ASN, *simulate.Result) {
	t.Helper()
	topo, err := topogen.Generate(topogen.DefaultConfig(150, 61))
	if err != nil {
		t.Fatal(err)
	}
	peers := SelectPeers(topo, 12)
	res, err := simulate.Run(topo, simulate.Options{VantagePoints: peers})
	if err != nil {
		t.Fatal(err)
	}
	return topo, peers, res
}

func TestSelectPeers(t *testing.T) {
	topo, peers, _ := fixture(t)
	if len(peers) != 12 {
		t.Fatalf("peers = %d", len(peers))
	}
	t1 := map[bgp.ASN]bool{}
	for _, asn := range topo.ASesByTier(1) {
		t1[asn] = true
	}
	// All tier-1s included (the paper: "nearly all Tier-1 ASs").
	covered := 0
	for _, p := range peers {
		if t1[p] {
			covered++
		}
	}
	if covered != len(t1) {
		t.Fatalf("tier-1 coverage %d of %d", covered, len(t1))
	}
	// Remaining slots go to the largest tier-2s.
	for _, p := range peers {
		if !t1[p] && topo.TierOf(p) != 2 {
			t.Fatalf("non-T1/T2 peer %v (tier %d)", p, topo.TierOf(p))
		}
	}
	// Requesting fewer than the T1 count truncates deterministically.
	small := SelectPeers(topo, 3)
	if len(small) != 3 {
		t.Fatalf("small peers = %d", len(small))
	}
}

func TestCollectSnapshot(t *testing.T) {
	topo, peers, res := fixture(t)
	snap, err := Collect(res, peers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Timestamp != 1000 || len(snap.Peers) != len(peers) {
		t.Fatalf("snapshot meta: %+v", snap)
	}
	if len(snap.Prefixes()) == 0 {
		t.Fatal("empty snapshot")
	}
	// Each stored route equals the peer's best.
	checked := 0
	for _, peer := range peers {
		rib := res.Tables[peer]
		for _, prefix := range rib.Prefixes() {
			want := rib.Best(prefix)
			got := snap.RouteFrom(peer, prefix)
			if got == nil || !got.Path.Equal(want.Path) {
				t.Fatalf("route mismatch at %v/%v", peer, prefix)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("nothing compared")
	}
	_ = topo
	// Unknown peer errors.
	if _, err := Collect(res, []bgp.ASN{65000}, 0); err == nil {
		t.Fatal("unknown peer must fail")
	}
}

func TestAllPathsDeduplicated(t *testing.T) {
	_, peers, res := fixture(t)
	snap, err := Collect(res, peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	paths := snap.AllPaths()
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		k := p.String()
		if seen[k] {
			t.Fatalf("duplicate path %q", k)
		}
		seen[k] = true
		if len(p) < 2 {
			t.Fatalf("short path %v", p)
		}
	}
}

func TestMRTRoundTrip(t *testing.T) {
	_, peers, res := fixture(t)
	snap, err := Collect(res, peers, 12345)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.WriteMRT(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMRT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timestamp != 12345 || len(back.Peers) != len(snap.Peers) {
		t.Fatalf("meta: %+v", back)
	}
	wantPrefixes := snap.Prefixes()
	gotPrefixes := back.Prefixes()
	if len(wantPrefixes) != len(gotPrefixes) {
		t.Fatalf("prefixes: %d -> %d", len(wantPrefixes), len(gotPrefixes))
	}
	for _, prefix := range wantPrefixes {
		for _, peer := range snap.Peers {
			want := snap.RouteFrom(peer, prefix)
			got := back.RouteFrom(peer, prefix)
			if (want == nil) != (got == nil) {
				t.Fatalf("presence mismatch %v/%v", peer, prefix)
			}
			if want == nil {
				continue
			}
			if !want.Path.Equal(got.Path) || want.LocalPref != got.LocalPref {
				t.Fatalf("route mismatch %v/%v: %v vs %v", peer, prefix, want, got)
			}
			if len(want.Communities) != len(got.Communities) {
				t.Fatalf("communities lost at %v/%v", peer, prefix)
			}
		}
	}
}

func TestCollectSeries(t *testing.T) {
	topo, err := topogen.Generate(topogen.DefaultConfig(120, 62))
	if err != nil {
		t.Fatal(err)
	}
	peers := SelectPeers(topo, 8)
	base, err := simulate.NewEngine(topo, simulate.Options{VantagePoints: peers})
	if err != nil {
		t.Fatal(err)
	}
	series, err := CollectSeries(base, SeriesOptions{
		Epochs:        4,
		ChurnFraction: 0.3,
		Seed:          5,
		EpochSeconds:  3600,
		Peers:         peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Snapshots) != 4 {
		t.Fatalf("snapshots = %d", len(series.Snapshots))
	}
	for i := 1; i < 4; i++ {
		if series.Snapshots[i].Timestamp != series.Snapshots[0].Timestamp+uint32(i)*3600 {
			t.Fatalf("timestamps not spaced: %d", series.Snapshots[i].Timestamp)
		}
	}
	// Churn must change at least one route across the series.
	changed := false
	first, last := series.Snapshots[0], series.Snapshots[3]
	for _, prefix := range first.Prefixes() {
		for _, peer := range first.Peers {
			a, b := first.RouteFrom(peer, prefix), last.RouteFrom(peer, prefix)
			if (a == nil) != (b == nil) {
				changed = true
			} else if a != nil && !a.Path.Equal(b.Path) {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("no route changed across churn epochs")
	}
	// The series ran on a clone: the base engine still answers epoch 0.
	again, err := Collect(base.Result(), peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mrtBytes(t, again), mrtBytes(t, first)) {
		t.Fatal("CollectSeries mutated the base engine")
	}
	if _, err := CollectSeries(base, SeriesOptions{Epochs: 0, Peers: peers}); err == nil {
		t.Fatal("zero epochs must fail")
	}
	if _, err := CollectSeries(base, SeriesOptions{Epochs: 3}); err == nil {
		t.Fatal("an empty peer set must fail")
	}
	// No two snapshots share a Peers slice.
	for i := 1; i < len(series.Snapshots); i++ {
		if &series.Snapshots[i].Peers[0] == &series.Snapshots[i-1].Peers[0] {
			t.Fatalf("snapshots %d and %d share their Peers slice", i-1, i)
		}
	}
}

// TestSeriesSnapshotChain is the oracle of the copy-on-write snapshot
// chain: every snapshot must equal, as MRT, a full Collect of an engine
// clone driven through the same churn in lockstep. The series is built
// completely before any epoch is checked, so a later epoch writing into
// an entry it still shares with an earlier snapshot fails the check.
func TestSeriesSnapshotChain(t *testing.T) {
	topo, err := topogen.Generate(topogen.DefaultConfig(150, 63))
	if err != nil {
		t.Fatal(err)
	}
	peers := SelectPeers(topo, 10)
	base, err := simulate.NewEngine(topo, simulate.Options{VantagePoints: peers})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		seed   int64
		churn  float64
		epochs int
		// rerolled demands that some prefix re-rolls in two
		// consecutive epochs, so a successor rewrites an entry its
		// predecessor itself rewrote.
		rerolled bool
	}{
		{5, 0.3, 6, true},
		{17, 0.04, 8, true},
		{3, 0.6, 5, true},
		{11, 0.01, 10, false},
	} {
		series, err := CollectSeries(base, SeriesOptions{
			Epochs:        tc.epochs,
			ChurnFraction: tc.churn,
			Seed:          tc.seed,
			EpochSeconds:  3600,
			Peers:         peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		lockstep := base.Clone()
		var prev map[netx.Prefix]bool
		rerolled := false
		for epoch, snap := range series.Snapshots {
			churned := map[netx.Prefix]bool{}
			if epoch > 0 {
				rng := rand.New(rand.NewSource(tc.seed + int64(epoch)))
				events := churnEvents(lockstep.Topology(), rng, tc.churn)
				for _, ev := range events {
					churned[ev.Prefix] = true
					rerolled = rerolled || prev[ev.Prefix]
				}
				if len(events) > 0 {
					if _, err := lockstep.Apply(simulate.Scenario{Events: events}); err != nil {
						t.Fatal(err)
					}
				}
			}
			prev = churned
			want, err := Collect(lockstep.Result(), peers, snap.Timestamp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mrtBytes(t, snap), mrtBytes(t, want)) {
				t.Fatalf("seed=%d churn=%v: epoch %d differs from a full Collect", tc.seed, tc.churn, epoch)
			}
		}
		if tc.rerolled && !rerolled {
			t.Fatalf("seed=%d churn=%v: no prefix re-rolled in consecutive epochs", tc.seed, tc.churn)
		}
	}

	// Control: with a negative fraction nothing churns, so every epoch
	// is epoch 0 under another timestamp.
	series, err := CollectSeries(base, SeriesOptions{
		Epochs: 5, ChurnFraction: -1, Seed: 5, EpochSeconds: 3600, Peers: peers,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := mrtBytes(t, series.Snapshots[0])
	for epoch, snap := range series.Snapshots[1:] {
		restamped := *snap
		restamped.Timestamp = series.Snapshots[0].Timestamp
		if !bytes.Equal(mrtBytes(t, &restamped), first) {
			t.Fatalf("control series: epoch %d differs from epoch 0", epoch+1)
		}
	}
}

// TestSeriesMatchesFullRunEveryEpoch is the series oracle: at every
// epoch, the snapshot the incremental engine-clone series took must be
// byte-identical, as MRT, to a from-scratch simulation of a topology
// that received the same churn through Scenario.ApplyToTopology.
func TestSeriesMatchesFullRunEveryEpoch(t *testing.T) {
	for _, tc := range []struct {
		ases     int
		topoSeed int64
		seed     int64
		churn    float64
		epochs   int
	}{
		{120, 62, 5, 0.3, 5},
		{150, 63, 17, 0.04, 6},
		{100, 64, 3, 0.6, 4},
	} {
		topo, err := topogen.Generate(topogen.DefaultConfig(tc.ases, tc.topoSeed))
		if err != nil {
			t.Fatal(err)
		}
		peers := SelectPeers(topo, 8)
		opts := simulate.Options{VantagePoints: peers}
		base, err := simulate.NewEngine(topo, opts)
		if err != nil {
			t.Fatal(err)
		}
		series, err := CollectSeries(base, SeriesOptions{
			Epochs:        tc.epochs,
			ChurnFraction: tc.churn,
			Seed:          tc.seed,
			EpochSeconds:  3600,
			Peers:         peers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := topo.Clone()
		churned := 0
		for epoch, snap := range series.Snapshots {
			if epoch > 0 {
				rng := rand.New(rand.NewSource(tc.seed + int64(epoch)))
				sc := simulate.Scenario{Events: churnEvents(ref, rng, tc.churn)}
				churned += len(sc.Events)
				if err := sc.ApplyToTopology(ref); err != nil {
					t.Fatal(err)
				}
			}
			res, err := simulate.Run(ref, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(res, peers, snap.Timestamp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mrtBytes(t, snap), mrtBytes(t, want)) {
				t.Fatalf("ases=%d seed=%d churn=%v: epoch %d diverges from a full run",
					tc.ases, tc.seed, tc.churn, epoch)
			}
		}
		if churned == 0 {
			t.Fatalf("ases=%d seed=%d churn=%v: no churn drawn", tc.ases, tc.seed, tc.churn)
		}
	}
}

// TestChurnEvents checks the churn generator: it is deterministic per
// seed, draws nothing for a negative fraction, and every prefix it
// emits events for ends up re-rolled into a valid policy.
func TestChurnEvents(t *testing.T) {
	topo, err := topogen.Generate(topogen.DefaultConfig(300, 17))
	if err != nil {
		t.Fatal(err)
	}
	events := churnEvents(topo, rand.New(rand.NewSource(99)), 0.5)
	if len(events) == 0 {
		t.Fatal("no churn at fraction 0.5")
	}
	again := churnEvents(topo, rand.New(rand.NewSource(99)), 0.5)
	if !reflect.DeepEqual(events, again) {
		t.Fatal("churn not reproducible under identical seeds")
	}
	if none := churnEvents(topo, rand.New(rand.NewSource(99)), -1); len(none) != 0 {
		t.Fatalf("negative fraction drew %d events", len(none))
	}
	// CollectSeries re-collects only the prefixes the events name, which
	// is exact only for per-prefix policy events.
	for _, ev := range events {
		if ev.Kind != simulate.EventSAToggle && ev.Kind != simulate.EventNoUpstream {
			t.Fatalf("churn emitted a %v event", ev.Kind)
		}
		if ev.Prefix == (netx.Prefix{}) {
			t.Fatalf("churn emitted a %v event without a prefix", ev.Kind)
		}
	}

	// Every emitted prefix is re-rolled: it is reset to announce-to-all
	// with no tag, then given its drawn policy.
	resetTo := map[netx.Prefix]map[bgp.ASN]bool{}
	cleared := map[netx.Prefix]bool{}
	for _, ev := range events {
		switch {
		case ev.Kind == simulate.EventSAToggle && ev.Announce:
			if resetTo[ev.Prefix] == nil {
				resetTo[ev.Prefix] = map[bgp.ASN]bool{}
			}
			resetTo[ev.Prefix][ev.Provider] = true
		case ev.Kind == simulate.EventNoUpstream && ev.Provider == 0:
			cleared[ev.Prefix] = true
		}
	}
	mutated := topo.Clone()
	if err := (simulate.Scenario{Events: events}).ApplyToTopology(mutated); err != nil {
		t.Fatal(err)
	}
	for prefix, announced := range resetTo {
		origin := topo.PrefixOrigin[prefix]
		providers := topo.Graph.Providers(origin)
		if len(announced) != len(providers) || !cleared[prefix] {
			t.Fatalf("%v: not reset before its re-roll", prefix)
		}
		export := mutated.Policies[origin].Export
		set, subset := export.OriginProviders[prefix]
		if subset && (len(set) == 0 || len(set) >= len(providers)) {
			t.Fatalf("%v: announce subset of size %d over %d providers", prefix, len(set), len(providers))
		}
		for p := range set {
			if !announced[p] {
				t.Fatalf("%v: announce subset names non-provider %v", prefix, p)
			}
		}
		if tag, tagged := export.NoUpstream[prefix]; tagged && (subset || !announced[tag]) {
			t.Fatalf("%v: bad no-upstream tag %v (subset %v)", prefix, tag, subset)
		}
	}
	if len(cleared) != len(resetTo) {
		t.Fatalf("%d prefixes cleared, %d reset", len(cleared), len(resetTo))
	}
}

func mrtBytes(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteMRT(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
