// Package routeviews models an Oregon-RouteViews-style collector: a
// pseudo-AS that peers with a set of real ASes, each of which announces
// its default-free best routes to it. The collector's view — per prefix,
// each peer's best route — is exactly what the paper's Section 3 data
// source provides, and snapshots serialize to MRT TABLE_DUMP_V2 like the
// real archive.
package routeviews

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/mrt"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/topogen"
)

// CollectorASN is the pseudo-ASN owning collector snapshots (Oregon's
// RouteViews used AS6447; the paper's Table 1 lists the view under
// AS6664).
const CollectorASN bgp.ASN = 6447

// SelectPeers picks a RouteViews-like peer set: every Tier-1 AS (the
// paper: "those ASs include nearly all Tier-1 ASs"), then the
// largest-degree Tier-2 ASes until n peers are selected.
func SelectPeers(topo *topogen.Topology, n int) []bgp.ASN {
	peers := append([]bgp.ASN(nil), topo.ASesByTier(1)...)
	t2 := append([]bgp.ASN(nil), topo.ASesByTier(2)...)
	sort.Slice(t2, func(i, j int) bool {
		di, dj := topo.Graph.Degree(t2[i]), topo.Graph.Degree(t2[j])
		if di != dj {
			return di > dj
		}
		return t2[i] < t2[j]
	})
	for _, asn := range t2 {
		if len(peers) >= n {
			break
		}
		peers = append(peers, asn)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	if len(peers) > n {
		peers = peers[:n]
	}
	return peers
}

// Snapshot is one collector table: each peer's best routes at an epoch.
type Snapshot struct {
	// Timestamp is the synthetic collection time (epoch index-based).
	Timestamp uint32
	// Peers is the collector's peer set, ascending.
	Peers []bgp.ASN
	// Table holds, per prefix, one candidate per peer (that peer's best
	// route). The RIB owner is CollectorASN.
	Table *bgp.RIB
}

// Collect builds a snapshot from a simulation result. Every peer must be
// among the run's vantage points.
func Collect(res *simulate.Result, peers []bgp.ASN, timestamp uint32) (*Snapshot, error) {
	snap := &Snapshot{
		Timestamp: timestamp,
		Peers:     append([]bgp.ASN(nil), peers...),
		Table:     bgp.NewRIB(CollectorASN),
	}
	sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i] < snap.Peers[j] })
	for _, peer := range snap.Peers {
		rib, ok := res.Tables[peer]
		if !ok {
			return nil, fmt.Errorf("routeviews: peer %v was not a vantage point", peer)
		}
		rib.EachBest(func(_ netx.Prefix, r *bgp.Route) {
			snap.Table.Upsert(peer, r)
		})
	}
	return snap, nil
}

// RouteFrom returns the best route peer announced for prefix, or nil.
func (s *Snapshot) RouteFrom(peer bgp.ASN, prefix netx.Prefix) *bgp.Route {
	return s.Table.CandidateFrom(prefix, peer)
}

// Prefixes lists every prefix any peer announced, in Compare order.
func (s *Snapshot) Prefixes() []netx.Prefix { return s.Table.Prefixes() }

// AllPaths returns every AS path in the snapshot (the relationship
// inference input). Paths are deduplicated.
func (s *Snapshot) AllPaths() []bgp.Path {
	seen := make(map[string]bool)
	var out []bgp.Path
	for _, prefix := range s.Table.Prefixes() {
		for _, r := range s.Table.Candidates(prefix) {
			if len(r.Path) < 2 {
				continue
			}
			k := r.Path.String()
			if !seen[k] {
				seen[k] = true
				out = append(out, r.Path)
			}
		}
	}
	return out
}

// WriteMRT serializes the snapshot as TABLE_DUMP_V2: one PEER_INDEX_TABLE
// followed by one RIB_IPV4_UNICAST record per prefix.
func (s *Snapshot) WriteMRT(w io.Writer) error {
	mw := mrt.NewWriter(w, s.Timestamp)
	peers := make([]mrt.PeerEntry, len(s.Peers))
	for i, asn := range s.Peers {
		peers[i] = mrt.PeerEntry{
			BGPID: uint32(asn),
			IP:    peerIP(asn),
			AS:    asn,
			AS4:   true,
		}
	}
	if err := mw.WritePeerIndex(uint32(CollectorASN), "policyscope", peers); err != nil {
		return err
	}
	for _, prefix := range s.Table.Prefixes() {
		var entries []mrt.TableEntry
		for _, peer := range s.Peers {
			r := s.Table.CandidateFrom(prefix, peer)
			if r == nil {
				continue
			}
			entries = append(entries, mrt.TableEntry{
				PeerAS:       peer,
				PeerIP:       peerIP(peer),
				Route:        r,
				OriginatedAt: s.Timestamp,
			})
		}
		if len(entries) == 0 {
			continue
		}
		if err := mw.WriteRIB(prefix, entries); err != nil {
			return err
		}
	}
	return nil
}

// ReadMRT reconstructs a snapshot from TABLE_DUMP_V2 output.
func ReadMRT(r io.Reader) (*Snapshot, error) {
	records, err := mrt.ReadAll(r)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Table: bgp.NewRIB(CollectorASN)}
	for _, rec := range records {
		switch rec := rec.(type) {
		case *mrt.PeerIndexRecord:
			snap.Timestamp = rec.Header.Timestamp
			for _, p := range rec.Peers {
				snap.Peers = append(snap.Peers, p.AS)
			}
			sort.Slice(snap.Peers, func(i, j int) bool { return snap.Peers[i] < snap.Peers[j] })
		case *mrt.RIBRecord:
			for _, e := range rec.Entries {
				snap.Table.Upsert(e.PeerAS, e.Route)
			}
		}
	}
	return snap, nil
}

func peerIP(asn bgp.ASN) uint32 {
	return 0xC6336400 | (uint32(asn) & 0xff) // 198.51.100.x, TEST-NET-2
}

// Series is a sequence of snapshots over policy-churn epochs — the
// substrate of the paper's Figures 6 and 7. Each snapshot after the
// first shares every table entry its epoch's churn did not touch with
// its predecessor, copy-on-write (the bgp.RIB.CloneCOW contract):
// treat every snapshot's Table as read-only.
type Series struct {
	// Snapshots, one per epoch, in time order.
	Snapshots []*Snapshot
}

// SeriesOptions configures CollectSeries.
type SeriesOptions struct {
	// Epochs is the number of snapshots (31 for the March-2002 daily
	// view, 12–24 for the hourly view).
	Epochs int
	// ChurnFraction is the per-epoch fraction of multihomed origins that
	// re-roll an export policy.
	ChurnFraction float64
	// Seed drives the churn.
	Seed int64
	// EpochSeconds spaces snapshot timestamps.
	EpochSeconds uint32
	// BaseTimestamp is the first snapshot's timestamp.
	BaseTimestamp uint32
	// Peers is the collector peer set; the engine's vantage points must
	// include every one of them.
	Peers []bgp.ASN
}

// CollectSeries snapshots the collector over policy-churn epochs. The
// first snapshot is base's converged state; every later epoch applies
// one batch of export-policy churn, as scenario events, to a
// copy-on-write clone of base and re-converges incrementally. base is
// never mutated. Each later snapshot re-collects only the prefixes its
// epoch's churn named and shares every other table entry with its
// predecessor, copy-on-write, so the snapshots must be treated as
// read-only.
func CollectSeries(base *simulate.Engine, opts SeriesOptions) (*Series, error) {
	if opts.Epochs <= 0 {
		return nil, fmt.Errorf("routeviews: Epochs must be positive")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("routeviews: Peers must not be empty")
	}
	if opts.EpochSeconds == 0 {
		opts.EpochSeconds = 86400
	}
	eng := base.Clone()
	snap, err := Collect(eng.Result(), opts.Peers, opts.BaseTimestamp)
	if err != nil {
		return nil, err
	}
	series := &Series{Snapshots: []*Snapshot{snap}}
	for epoch := 1; epoch < opts.Epochs; epoch++ {
		rng := rand.New(rand.NewSource(opts.Seed + int64(epoch)))
		events := churnEvents(eng.Topology(), rng, opts.ChurnFraction)
		if len(events) > 0 {
			if _, err := eng.Apply(simulate.Scenario{Events: events}); err != nil {
				return nil, err
			}
		}
		snap = snap.successor(eng.Result(), events, opts.BaseTimestamp+uint32(epoch)*opts.EpochSeconds)
		series.Snapshots = append(series.Snapshots, snap)
	}
	return series, nil
}

// successor returns the snapshot that follows s once events have been
// applied to the engine whose state res shows. It is a CloneCOW of s's
// table in which the entry of every prefix an event names is rebuilt
// from each peer's current best route, in ascending peer order as
// Collect does; every other entry stays shared with s. That is exact
// only because churnEvents emits per-prefix policy events, which
// re-converge the prefix they name and no other.
func (s *Snapshot) successor(res *simulate.Result, events []simulate.Event, timestamp uint32) *Snapshot {
	// Sort s's prefixes once so every successor with the same prefix
	// set inherits the cached order instead of re-sorting it.
	s.Table.Prefixes()
	next := &Snapshot{
		Timestamp: timestamp,
		Peers:     append([]bgp.ASN(nil), s.Peers...),
		Table:     s.Table.CloneCOW(),
	}
	done := make(map[netx.Prefix]bool)
	for _, ev := range events {
		if done[ev.Prefix] {
			continue
		}
		done[ev.Prefix] = true
		for _, peer := range next.Peers {
			if r := res.Tables[peer].Best(ev.Prefix); r != nil {
				next.Table.Upsert(peer, r)
			} else {
				next.Table.Withdraw(peer, ev.Prefix)
			}
		}
	}
	return next
}

// churnEvents draws one epoch of export-policy churn (Figures 6–7:
// operators "change prefix exporting pattern at different time").
// Roughly fraction of the multihomed origins re-roll one prefix each,
// cycling it between announce-to-all, announce-to-subset and
// no-upstream tagging. A re-rolled prefix is first reset to
// announce-to-all with no tag, then given its drawn policy. A negative
// fraction draws no churn (the control series). Every event is an
// EventSAToggle or EventNoUpstream naming its prefix: CollectSeries
// re-collects only those prefixes, so it depends on this.
func churnEvents(topo *topogen.Topology, rng *rand.Rand, fraction float64) []simulate.Event {
	var events []simulate.Event
	for _, asn := range topo.Order {
		prefixes := topo.ASes[asn].Prefixes
		providers := topo.Graph.Providers(asn)
		if len(providers) < 2 || len(prefixes) == 0 {
			continue
		}
		if rng.Float64() >= fraction {
			continue
		}
		prefix := prefixes[rng.Intn(len(prefixes))]
		for _, p := range providers {
			events = append(events, simulate.ToggleProviderAnnouncement(prefix, p, true))
		}
		events = append(events, simulate.TagNoUpstream(prefix, 0))
		switch rng.Intn(3) {
		case 1:
			// Withhold from every provider outside a random proper subset.
			subsetSize := 1 + rng.Intn(len(providers)-1)
			for _, idx := range rng.Perm(len(providers))[subsetSize:] {
				events = append(events, simulate.ToggleProviderAnnouncement(prefix, providers[idx], false))
			}
		case 2:
			events = append(events, simulate.TagNoUpstream(prefix, providers[rng.Intn(len(providers))]))
		}
	}
	return events
}
