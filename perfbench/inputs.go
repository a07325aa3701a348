package main

import (
	"fmt"
	"math/rand"

	policyscope "github.com/policyscope/policyscope"
	"github.com/policyscope/policyscope/dataset"
	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/simulate"
	"github.com/policyscope/policyscope/internal/sweep"
	"github.com/policyscope/policyscope/internal/topogen"
)

// paperConfig is the built-in "paper" preset (600 ASes, 24 collector
// peers) as the catalog defines it. The workload seed does not replace
// the preset's own seed: across seeds, a different topology moved heap
// and latency figures by more than any regression bound could absorb,
// so the dataset is fixed and the seed draws the workload run on it.
func paperConfig() (policyscope.Config, error) {
	src, ok := dataset.Builtin().Get("paper")
	if !ok || src.Spec().Synthetic == nil {
		return policyscope.Config{}, fmt.Errorf("no synthetic paper preset in the built-in catalog")
	}
	return *src.Spec().Synthetic, nil
}

// family names a scenario by its events: a provider de-peering is a
// link failure, a hijack is a withdrawal plus a re-origination.
func family(sc simulate.Scenario) string {
	kinds := map[simulate.EventKind]bool{}
	for _, ev := range sc.Events {
		kinds[ev.Kind] = true
	}
	switch {
	case kinds[simulate.EventWithdraw] && kinds[simulate.EventAnnounce]:
		return "hijack"
	case kinds[simulate.EventWithdraw]:
		return "withdraw"
	case kinds[simulate.EventAnnounce]:
		return "announce"
	case kinds[simulate.EventLocalPref]:
		return "local_pref"
	case kinds[simulate.EventNoUpstream]:
		return "no_upstream"
	default:
		return "link_fail"
	}
}

// pick draws k distinct elements of xs (all of them when k >= len).
func pick[T any](rng *rand.Rand, xs []T, k int) []T {
	idx := rng.Perm(len(xs))
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]T, k)
	for i := range out {
		out[i] = xs[idx[i]]
	}
	return out
}

func sortedPrefixes(topo *topogen.Topology) []netx.Prefix {
	out := make([]netx.Prefix, 0, len(topo.PrefixOrigin))
	for p := range topo.PrefixOrigin {
		out = append(out, p)
	}
	netx.SortPrefixes(out)
	return out
}

// multihomed lists, ascending, the ASes with at least two providers
// that originate prefixes.
func multihomed(topo *topogen.Topology) []bgp.ASN {
	var out []bgp.ASN
	for _, asn := range topo.Order {
		if len(topo.Graph.Providers(asn)) >= 2 && len(topo.ASes[asn].Prefixes) > 0 {
			out = append(out, asn)
		}
	}
	return out
}

func tierASes(topo *topogen.Topology, tier int) []bgp.ASN {
	var out []bgp.ASN
	for _, asn := range topo.Order {
		if topo.ASes[asn].Tier == tier {
			out = append(out, asn)
		}
	}
	return out
}

// whatIfScenarios draws the serving workload's distinct what-ifs:
// single-link failures, provider de-peerings of multihomed origins and
// prefix withdrawals.
func whatIfScenarios(topo *topogen.Topology, seed int64) []simulate.Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []simulate.Scenario
	for _, e := range pick(rng, topo.Graph.Edges(), 16) {
		out = append(out, simulate.Scenario{
			Name:   fmt.Sprintf("link_fail:%d-%d", e.A, e.B),
			Events: []simulate.Event{simulate.FailLink(e.A, e.B)},
		})
	}
	for _, asn := range pick(rng, multihomed(topo), 8) {
		provs := topo.Graph.Providers(asn)
		p := provs[rng.Intn(len(provs))]
		out = append(out, simulate.Scenario{
			Name:   fmt.Sprintf("depeer:%d:%d", asn, p),
			Events: []simulate.Event{simulate.FailLink(asn, p)},
		})
	}
	for _, p := range pick(rng, sortedPrefixes(topo), 8) {
		out = append(out, simulate.Scenario{
			Name:   fmt.Sprintf("withdraw:%v", p),
			Events: []simulate.Event{simulate.WithdrawPrefix(p)},
		})
	}
	return out
}

// request is one entry of the serving traffic mix: a what-if (index
// into the scenario list) or a read of one table.
type request struct {
	whatIf   int // -1 for a /run read
	table    string
	scenario simulate.Scenario
}

// serveTables are the /run reads of the mix.
var serveTables = []string{"table2", "table5", "table7"}

// trafficPlan draws n requests as shuffled blocks of ten: seven
// what-ifs and one read of each table, so every stretch of the run
// offers the same ~70/30 mix and only the order and the scenarios vary
// with the seed.
func trafficPlan(scs []simulate.Scenario, seed int64, n int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	out := make([]request, 0, n+10)
	for len(out) < n {
		block := make([]request, 0, 10)
		for i := 0; i < 7; i++ {
			k := rng.Intn(len(scs))
			block = append(block, request{whatIf: k, scenario: scs[k]})
		}
		for _, t := range serveTables {
			block = append(block, request{whatIf: -1, table: t})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

// sweepSpec draws the sweep workloads' capped spec: the five generated
// families plus explicit announcements of fresh prefixes. The explicit
// family is there because none of the five generated families restores
// through inverse events; announcements do, so all three restore modes
// run. Every family yields exactly its cap, so each seed sweeps the same
// number of scenarios per family; the link failures come first and do
// not depend on the seed, so the first streamed records are comparable
// across seeds.
func sweepSpec(topo *topogen.Topology, seed int64) (sweep.Spec, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5ee9))
	stubs := tierASes(topo, 3)
	var transit []bgp.ASN
	for _, asn := range tierASes(topo, 2) {
		if len(topo.Graph.Neighbors(asn)) >= 8 {
			transit = append(transit, asn)
		}
	}
	// Prefixes of multihomed origins: each has at least two providers,
	// so eight of them give at least sixteen no-upstream pairs.
	var multiPrefixes []netx.Prefix
	for _, asn := range multihomed(topo) {
		multiPrefixes = append(multiPrefixes, topo.ASes[asn].Prefixes...)
	}
	if len(stubs) < 16 || len(transit) == 0 || len(multiPrefixes) < 32 {
		return sweep.Spec{}, fmt.Errorf("topology too small for the sweep spec: %d stubs, %d transit, %d multihomed prefixes", len(stubs), len(transit), len(multiPrefixes))
	}
	sortP := func(ps []netx.Prefix) []netx.Prefix { netx.SortPrefixes(ps); return ps }
	withdraw := sortP(pick(rng, sortedPrefixes(topo), 12))
	hijacked := sortP(pick(rng, sortedPrefixes(topo), 6))
	origins := map[bgp.ASN]bool{}
	for _, p := range hijacked {
		origins[topo.PrefixOrigin[p]] = true
	}
	var attackers []bgp.ASN
	for _, asn := range pick(rng, stubs, len(stubs)) {
		if !origins[asn] && len(attackers) < 2 {
			attackers = append(attackers, asn)
		}
	}
	var announce []simulate.Scenario
	for k, origin := range pick(rng, stubs, 8) {
		p := netx.MustParsePrefix(fmt.Sprintf("100.64.%d.0/24", k))
		if _, taken := topo.PrefixOrigin[p]; taken {
			return sweep.Spec{}, fmt.Errorf("fresh prefix %v is already originated", p)
		}
		announce = append(announce, simulate.Scenario{
			Name:   fmt.Sprintf("announce:%v:%d", p, origin),
			Events: []simulate.Event{simulate.AnnouncePrefix(p, origin)},
		})
	}
	return sweep.Spec{
		Name: fmt.Sprintf("perfbench-%d", seed),
		Generators: []sweep.Generator{
			{Kind: sweep.KindAllSingleLinkFailures, Tier: 2, Max: 32},
			{Kind: sweep.KindPrefixWithdrawals, Prefixes: withdraw, PerPrefix: true},
			{Kind: sweep.KindHijacks, Prefixes: hijacked, Attackers: attackers, PerPrefix: true},
			{Kind: sweep.KindLocalPrefFlips, AS: transit[rng.Intn(len(transit))], Values: []uint32{50, 250}, Max: 16},
			{Kind: sweep.KindNoUpstreamFlips, Prefixes: sortP(pick(rng, multiPrefixes, 8)), Max: 16},
			{Kind: sweep.KindScenarios, Scenarios: announce},
		},
	}, nil
}

// sweepFamilySizes is what sweepSpec yields per family.
var sweepFamilySizes = map[string]int{
	"link_fail": 32, "withdraw": 12, "hijack": 12, "local_pref": 16, "no_upstream": 16, "announce": 8,
}

// familyCounts counts scenarios per family, in the order of families.
func familyCounts(scs []simulate.Scenario) map[string]int {
	out := make(map[string]int)
	for _, sc := range scs {
		out[family(sc)]++
	}
	return out
}
