package policyscope

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/policyscope/policyscope/internal/bgp"
	"github.com/policyscope/policyscope/internal/core"
	"github.com/policyscope/policyscope/internal/ibgp"
	"github.com/policyscope/policyscope/internal/irr"
	"github.com/policyscope/policyscope/internal/netx"
	"github.com/policyscope/policyscope/internal/reports"
	"github.com/policyscope/policyscope/internal/routeviews"
	"github.com/policyscope/policyscope/internal/topogen"
)

// This file maps each table and figure of the paper to an experiment
// method plus a renderer. The per-experiment index lives in DESIGN.md;
// paper-vs-measured numbers are recorded in EXPERIMENTS.md.

// ---- Table 1 -------------------------------------------------------------

// Table1Row describes one vantage AS like the paper's dataset table.
type Table1Row struct {
	AS     bgp.ASN
	Name   string
	Degree int
	Tier   int
	Region topogen.Region
	// LookingGlass marks full-table vantages.
	LookingGlass bool
}

// Table1Dataset describes the study's vantage set.
func (s *Study) Table1Dataset() []Table1Row {
	lg := make(map[bgp.ASN]bool, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		lg[asn] = true
	}
	rows := make([]Table1Row, 0, len(s.Peers))
	for _, asn := range s.Peers {
		info := s.Topo.ASes[asn]
		rows = append(rows, Table1Row{
			AS:           asn,
			Name:         info.Name,
			Degree:       s.Topo.Graph.Degree(asn),
			Tier:         info.Tier,
			Region:       info.Region,
			LookingGlass: lg[asn],
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Degree > rows[j].Degree })
	return rows
}

// RenderTable1 renders the dataset table.
func RenderTable1(rows []Table1Row) *reports.Table {
	t := &reports.Table{
		Title:   "Table 1: vantage ASes (collector peers; LG = full-table Looking Glass)",
		Columns: []string{"AS", "name", "degree", "tier", "location", "LG"},
	}
	for _, r := range rows {
		lg := ""
		if r.LookingGlass {
			lg = "yes"
		}
		t.AddRow(r.AS.String(), r.Name, fmt.Sprintf("%d", r.Degree),
			fmt.Sprintf("%d", r.Tier), string(r.Region), lg)
	}
	return t
}

// ---- Table 2 / Figure 2 --------------------------------------------------

// Table2TypicalLocalPref measures per-AS local-preference typicality at
// the Looking Glass vantages.
func (s *Study) Table2TypicalLocalPref() []core.TypicalityResult {
	a := &core.ImportAnalyzer{Graph: s.Graph}
	out := make([]core.TypicalityResult, 0, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		out = append(out, a.Typicality(s.Result.Tables[asn]))
	}
	return out
}

// RenderTable2 renders typicality results.
func RenderTable2(rows []core.TypicalityResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 2: typical local preference assignment (Looking Glass vantages)",
		Columns: []string{"AS", "% typical localpref", "comparable prefixes"},
		Note:    "paper: 94.3-100% across 15 ASes",
	}
	for _, r := range rows {
		t.AddRow(r.AS.String(), reports.Pct(r.TypicalPct()), fmt.Sprintf("%d", r.Comparable))
	}
	return t
}

// Figure2aConsistency measures next-hop-keyed preference share per
// Looking Glass AS.
func (s *Study) Figure2aConsistency() []core.ConsistencyResult {
	a := &core.ImportAnalyzer{Graph: s.Graph}
	out := make([]core.ConsistencyResult, 0, len(s.LookingGlass))
	for _, asn := range s.LookingGlass {
		out = append(out, a.NextHopConsistency(s.Result.Tables[asn]))
	}
	return out
}

// Figure2bRouterConsistency builds the 30-router refinement of the
// largest Tier-1 and measures per-router consistency.
func (s *Study) Figure2bRouterConsistency(routers, driftRouters int) ([]core.ConsistencyResult, error) {
	t1 := s.TierOneVantages(1)
	if len(t1) == 0 {
		return nil, fmt.Errorf("policyscope: no tier-1 vantage")
	}
	m, err := ibgp.Build(s.Topo, t1[0], s.Result.Tables[t1[0]], ibgp.Options{
		Routers:      routers,
		DriftRouters: driftRouters,
		DriftShare:   0.25,
		Seed:         s.Config.Seed,
	})
	if err != nil {
		return nil, err
	}
	a := &core.ImportAnalyzer{Graph: s.Graph}
	return a.RouterConsistency(m), nil
}

// RenderFigure2 renders either consistency series as a chart.
func RenderFigure2(title string, rows []core.ConsistencyResult) *reports.Chart {
	c := &reports.Chart{
		Title:  title,
		XLabel: "AS / router",
		YLabel: "% prefixes with next-hop-keyed localpref",
		Series: map[string][]float64{"consistency": {}},
	}
	for _, r := range rows {
		label := r.AS.String()
		if r.Router > 0 {
			label = fmt.Sprintf("router %d", r.Router)
		}
		c.X = append(c.X, label)
		c.Series["consistency"] = append(c.Series["consistency"], r.Pct())
	}
	return c
}

// ---- Table 3 ---------------------------------------------------------------

// Table3Options parameterizes the IRR experiment.
type Table3Options struct {
	// MinDate filters stale objects (paper: updated during 2002).
	MinDate int
	// MinNeighbors keeps ASes with enough known-relationship imports
	// (the paper used >50 on the real Internet).
	MinNeighbors int
	// Gen controls registry synthesis; zero values take defaults.
	Gen irr.GenOptions
}

// Table3IRR generates a registry from ground truth and mines it.
func (s *Study) Table3IRR(opts Table3Options) []core.IRRTypicalityResult {
	gen := opts.Gen
	if gen.FreshDate == 0 {
		gen = irr.DefaultGenOptions(s.Config.Seed + 1)
	}
	if opts.MinDate == 0 {
		opts.MinDate = 20020101
	}
	if opts.MinNeighbors == 0 {
		opts.MinNeighbors = 4
	}
	db := irr.Generate(s.Topo, gen)
	return core.IRRTypicality(db, s.Graph, opts.MinDate, opts.MinNeighbors)
}

// RenderTable3 renders the IRR typicality table.
func RenderTable3(rows []core.IRRTypicalityResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 3: typical local preference from IRR (fresh aut-num objects)",
		Columns: []string{"AS", "% typical pairs", "import lines"},
		Note:    "paper: 80-100% across 62 ASes",
	}
	for _, r := range rows {
		t.AddRow(r.AS.String(), reports.Pct(r.TypicalPct()), fmt.Sprintf("%d", r.Neighbors))
	}
	return t
}

// ---- Table 4 / Figure 9 / Table 11 ----------------------------------------

// Table4Row is one AS's verification outcome plus how its semantics were
// obtained.
type Table4Row struct {
	Result core.VerificationResult
	// Published is true when the scheme came from the operator (IRR or
	// web) rather than count-based inference.
	Published bool
}

// Table4Verification verifies relationships via communities at tagging
// vantages, published schemes first, inferred otherwise (maxASes caps the
// table like the paper's 9 rows).
func (s *Study) Table4Verification(maxASes int) []Table4Row {
	var out []Table4Row
	for _, asn := range s.Peers {
		pol := s.Topo.Policies[asn]
		if pol.Tagging == nil {
			continue
		}
		rib := s.Result.Tables[asn]
		var sem core.CommunitySemantics
		if pol.Tagging.Published {
			sem = core.SemanticsFromScheme(asn, pol.Tagging.Scheme(), pol.Tagging.ClassOf)
		} else {
			sem = core.InferCommunitySemantics(rib, s.HasProviders(asn))
		}
		if len(sem.ClassOf) == 0 {
			continue
		}
		res := core.VerifyRelationships(rib, sem, s.Graph)
		if res.Neighbors == 0 {
			continue
		}
		out = append(out, Table4Row{Result: res, Published: pol.Tagging.Published})
		if maxASes > 0 && len(out) >= maxASes {
			break
		}
	}
	return out
}

// RenderTable4 renders verification rows.
func RenderTable4(rows []Table4Row) *reports.Table {
	t := &reports.Table{
		Title:   "Table 4: AS relationships verified via BGP communities",
		Columns: []string{"AS", "neighbors", "% verified", "semantics"},
		Note:    "paper: 94.1-99.55% across 9 ASes",
	}
	for _, r := range rows {
		src := "inferred (Fig 9)"
		if r.Published {
			src = "published"
		}
		t.AddRow(r.Result.AS.String(), fmt.Sprintf("%d", r.Result.Neighbors),
			reports.Pct(r.Result.VerifiedPct()), src)
	}
	return t
}

// Figure9NeighborRanks ranks next-hop ASes by announced prefixes for n
// vantage ASes.
func (s *Study) Figure9NeighborRanks(n int) map[bgp.ASN][]core.NeighborRank {
	out := make(map[bgp.ASN][]core.NeighborRank, n)
	for _, asn := range s.Peers {
		if len(out) >= n {
			break
		}
		out[asn] = core.RankNeighbors(s.Result.Tables[asn])
	}
	return out
}

// RenderFigure9 renders one AS's rank series.
func RenderFigure9(asn bgp.ASN, ranks []core.NeighborRank) *reports.Chart {
	c := &reports.Chart{
		Title:  fmt.Sprintf("Figure 9: prefixes announced by next-hop ASes of %v", asn),
		XLabel: "rank (next-hop AS)",
		YLabel: "prefixes",
		LogY:   true,
		Series: map[string][]float64{"prefixes": {}},
	}
	for i, r := range ranks {
		c.X = append(c.X, fmt.Sprintf("%02d %v", i+1, r.Neighbor))
		c.Series["prefixes"] = append(c.Series["prefixes"], float64(r.Prefixes))
	}
	return c
}

// Table11Scheme returns a published tagging scheme (the Table 11
// analogue); ok is false when no vantage publishes one.
func (s *Study) Table11Scheme() (bgp.ASN, []topogen.TagSchemeEntry, bool) {
	for _, asn := range s.Peers {
		pol := s.Topo.Policies[asn]
		if pol.Tagging != nil && pol.Tagging.Published {
			return asn, pol.Tagging.Scheme(), true
		}
	}
	return 0, nil, false
}

// RenderTable11 renders a tagging scheme.
func RenderTable11(asn bgp.ASN, scheme []topogen.TagSchemeEntry) *reports.Table {
	t := &reports.Table{
		Title:   fmt.Sprintf("Table 11: tagging communities published by %v", asn),
		Columns: []string{"community", "meaning"},
	}
	for _, e := range scheme {
		t.AddRow(e.Community.String(), e.Description)
	}
	return t
}

// ---- Table 5 / 6 -----------------------------------------------------------

// Table5SAPrefixes runs the Figure-4 SA detector at every collector peer.
func (s *Study) Table5SAPrefixes() []core.SAResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	out := make([]core.SAResult, 0, len(s.Peers))
	for _, asn := range s.Peers {
		out = append(out, a.SAPrefixes(s.PeerView(asn)))
	}
	return out
}

// RenderTable5 renders SA shares.
func RenderTable5(rows []core.SAResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 5: selectively announced (SA) prefixes per vantage",
		Columns: []string{"AS", "cone prefixes", "SA prefixes", "% SA"},
		Note:    "paper: 0-48.6% across 16 ASes, tens of percent at Tier-1s",
	}
	for _, r := range rows {
		t.AddRow(r.Vantage.String(), fmt.Sprintf("%d", r.ConePrefixes),
			fmt.Sprintf("%d", len(r.SA)), reports.Pct(r.SAPct()))
	}
	return t
}

// Table6CustomerView measures per-customer SA shares against the top
// Tier-1 vantages.
func (s *Study) Table6CustomerView(providers, maxRows, minPrefixes int) []core.CustomerSARow {
	t1 := s.TierOneVantages(providers)
	views := make([]core.BestView, 0, len(t1))
	for _, asn := range t1 {
		views = append(views, s.PeerView(asn))
	}
	a := &core.ExportAnalyzer{Graph: s.Graph}
	rows := a.CustomerView(views, minPrefixes)
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	return rows
}

// RenderTable6 renders the customer view.
func RenderTable6(rows []core.CustomerSARow) *reports.Table {
	t := &reports.Table{
		Title:   "Table 6: SA prefixes per customer of the top Tier-1 providers",
		Columns: []string{"customer", "prefixes", "SA prefixes", "% SA"},
		Note:    "paper: 17-97% across 8 customers",
	}
	for _, r := range rows {
		t.AddRow(r.Customer.String(), fmt.Sprintf("%d", r.Prefixes),
			fmt.Sprintf("%d", r.SACount), reports.Pct(r.SAPct()))
	}
	return t
}

// ---- Table 7 / 8 / 9 / Case 3 ----------------------------------------------

// Table7Verification verifies SA prefixes at the top Tier-1s.
func (s *Study) Table7Verification(providers int) []core.SAVerification {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	allPaths := s.AllObservedPaths()
	var out []core.SAVerification
	for _, asn := range s.TierOneVantages(providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.VerifySAPrefixes(sa, s.Graph, allPaths, 0))
	}
	return out
}

// RenderTable7 renders SA verification.
func RenderTable7(rows []core.SAVerification) *reports.Table {
	t := &reports.Table{
		Title:   "Table 7: SA prefixes verified via active customer paths",
		Columns: []string{"provider", "SA prefixes", "% verified"},
		Note:    "paper: 95-97.6% for AS1/AS3549/AS7018",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount), reports.Pct(r.VerifiedPct()))
	}
	return t
}

// Table8Multihoming classifies SA origins at the top Tier-1s.
func (s *Study) Table8Multihoming(providers int) []core.MultihomingResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	var out []core.MultihomingResult
	for _, asn := range s.TierOneVantages(providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.ClassifyMultihoming(sa, s.Graph))
	}
	return out
}

// RenderTable8 renders the multihoming split.
func RenderTable8(rows []core.MultihomingResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 8: multihomed vs single-homed ASes originating SA prefixes",
		Columns: []string{"provider", "multihomed", "single-homed", "% multihomed"},
		Note:    "paper: ~75% multihomed",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.Multihomed),
			fmt.Sprintf("%d", r.SingleHomed), reports.Pct(r.MultihomedPct()))
	}
	return t
}

// Table9SplitAggregate counts Case-1/Case-2 signatures at the top
// Tier-1s.
func (s *Study) Table9SplitAggregate(providers int) []core.SplitAggregateResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	var out []core.SplitAggregateResult
	for _, asn := range s.TierOneVantages(providers) {
		view := s.PeerView(asn)
		sa := a.SAPrefixes(view)
		out = append(out, core.AnalyzeSplitAggregate(sa, view, s.Graph))
	}
	return out
}

// RenderTable9 renders splitting/aggregation counts.
func RenderTable9(rows []core.SplitAggregateResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 9: prefix splitting and aggregation among SA prefixes",
		Columns: []string{"provider", "SA prefixes", "splitting", "aggregating"},
		Note:    "paper: both minority causes (127-218 of 3431-9120)",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount),
			fmt.Sprintf("%d", r.Splitting), fmt.Sprintf("%d", r.Aggregating))
	}
	return t
}

// Case3Selective runs the selective-announcing breakdown at the top
// Tier-1s.
func (s *Study) Case3Selective(providers int) []core.SelectiveAnnouncingResult {
	a := &core.ExportAnalyzer{Graph: s.Graph}
	pathIdx := s.PathIndex()
	var out []core.SelectiveAnnouncingResult
	for _, asn := range s.TierOneVantages(providers) {
		sa := a.SAPrefixes(s.PeerView(asn))
		out = append(out, core.AnalyzeSelectiveAnnouncing(sa, s.Graph, pathIdx))
	}
	return out
}

// RenderCase3 renders the Case-3 breakdown.
func RenderCase3(rows []core.SelectiveAnnouncingResult) *reports.Table {
	t := &reports.Table{
		Title:   "Case 3 (Section 5.1.5): how SA origins export to vantage-side providers",
		Columns: []string{"provider", "SA", "% identified", "% exported", "% withheld"},
		Note:    "paper (AS1): ~90% identified; 21% exported, 79% withheld",
	}
	for _, r := range rows {
		t.AddRow(r.Provider.String(), fmt.Sprintf("%d", r.SACount),
			reports.Pct(r.IdentifiedPct()), reports.Pct(r.ExportedPct()), reports.Pct(r.WithheldPct()))
	}
	return t
}

// ---- Table 10 ---------------------------------------------------------------

// Table10PeerExport measures export-to-peer behaviour at the top
// Tier-1s.
func (s *Study) Table10PeerExport(providers int) []core.PeerExportResult {
	universe := core.OriginUniverse(s.AllPeerViews())
	var out []core.PeerExportResult
	for _, asn := range s.TierOneVantages(providers) {
		out = append(out, core.AnalyzePeerExport(s.PeerView(asn), s.Graph, universe))
	}
	return out
}

// RenderTable10 renders peer-export shares.
func RenderTable10(rows []core.PeerExportResult) *reports.Table {
	t := &reports.Table{
		Title:   "Table 10: peers announcing all their prefixes directly",
		Columns: []string{"AS", "peers", "announcing all", "%"},
		Note:    "paper: 86-100% for AS1/AS3549/AS7018",
	}
	for _, r := range rows {
		t.AddRow(r.Vantage.String(), fmt.Sprintf("%d", len(r.Rows)),
			fmt.Sprintf("%d", r.Announcing()), reports.Pct(r.AnnouncingPct()))
	}
	return t
}

// ---- Figures 6 and 7 ---------------------------------------------------------

// PersistenceOptions sizes the Figure 6/7 series.
type PersistenceOptions struct {
	// Epochs is the series length (31 daily epochs in Fig 6a, 12-24
	// hourly in Fig 6b).
	Epochs int
	// ChurnFraction is the per-epoch share of multihomed origins
	// re-rolling one prefix's export policy. Zero keeps the default;
	// a negative value disables churn (a control series).
	ChurnFraction float64
	// EpochSeconds spaces snapshot timestamps (86400 daily, 3600 hourly).
	EpochSeconds uint32
}

// Figure6and7Persistence collects an epoch series and analyzes SA
// persistence at the largest Tier-1. The churn runs on a clone of the
// study's base engine, so the study stays on the base configuration and
// concurrent queries never observe mid-experiment policies.
func (s *Study) Figure6and7Persistence(opts PersistenceOptions) (core.PersistenceResult, error) {
	if opts.Epochs <= 0 {
		opts.Epochs = 31
	}
	if opts.ChurnFraction == 0 {
		// Tuned so roughly a sixth of ever-SA prefixes shift over a
		// 31-epoch series, the paper's Figure 7(a) observation.
		opts.ChurnFraction = 0.008
	}
	if opts.EpochSeconds == 0 {
		opts.EpochSeconds = 86400
	}
	t1 := s.TierOneVantages(1)
	if len(t1) == 0 {
		return core.PersistenceResult{}, fmt.Errorf("policyscope: no tier-1 vantage")
	}
	base, err := s.baseEngine()
	if err != nil {
		return core.PersistenceResult{}, err
	}
	series, err := routeviews.CollectSeries(base, routeviews.SeriesOptions{
		Epochs:        opts.Epochs,
		ChurnFraction: opts.ChurnFraction,
		Seed:          s.Config.Seed + 7,
		EpochSeconds:  opts.EpochSeconds,
		Peers:         s.Peers,
	})
	if err != nil {
		return core.PersistenceResult{}, err
	}
	a := &core.ExportAnalyzer{Graph: s.Graph}
	views := make([]core.BestView, 0, opts.Epochs)
	times := make([]uint32, 0, opts.Epochs)
	for _, snap := range series.Snapshots {
		views = append(views, core.ViewFromPeerTable(snap.Table, t1[0]))
		times = append(times, snap.Timestamp)
	}
	return core.AnalyzePersistence(a, views, times), nil
}

// RenderFigure6 renders the per-epoch counts.
func RenderFigure6(res core.PersistenceResult, xlabel string) *reports.Chart {
	c := &reports.Chart{
		Title:       fmt.Sprintf("Figure 6: persistence of SA prefixes for %v", res.Vantage),
		XLabel:      xlabel,
		YLabel:      "prefixes",
		LogY:        true,
		Series:      map[string][]float64{"All prefixes": {}, "SA prefixes": {}},
		SeriesOrder: []string{"All prefixes", "SA prefixes"},
	}
	for i, p := range res.Points {
		c.X = append(c.X, fmt.Sprintf("%d", i+1))
		c.Series["All prefixes"] = append(c.Series["All prefixes"], float64(p.AllPrefixes))
		c.Series["SA prefixes"] = append(c.Series["SA prefixes"], float64(p.SAPrefixes))
	}
	return c
}

// RenderFigure7 renders the uptime histogram.
func RenderFigure7(res core.PersistenceResult, xlabel string) *reports.Chart {
	c := &reports.Chart{
		Title:       fmt.Sprintf("Figure 7: SA uptime for %v (shifting share %.2f)", res.Vantage, res.ShiftingShare()),
		XLabel:      xlabel,
		YLabel:      "prefixes",
		Series:      map[string][]float64{"Remaining SA": {}, "Shifting SA to non-SA": {}},
		SeriesOrder: []string{"Remaining SA", "Shifting SA to non-SA"},
	}
	for _, b := range res.UptimeHistogram() {
		c.X = append(c.X, fmt.Sprintf("%d", b.Uptime))
		c.Series["Remaining SA"] = append(c.Series["Remaining SA"], float64(b.RemainingSA))
		c.Series["Shifting SA to non-SA"] = append(c.Series["Shifting SA to non-SA"], float64(b.Shifting))
	}
	return c
}

// ---- ground truth scoring ----------------------------------------------------

// studyTruth adapts the generator's policies to core.GroundTruth: a
// prefix counts as selectively announced when any configured mechanism —
// origin subset, no-upstream tag, transit exclusion, or provider
// aggregation — could have withheld it somewhere.
type studyTruth struct{ topo *topogen.Topology }

// IsSelectivelyAnnounced implements core.GroundTruth.
func (g studyTruth) IsSelectivelyAnnounced(prefix netx.Prefix) bool {
	origin, ok := g.topo.PrefixOrigin[prefix]
	if !ok {
		return false
	}
	pol := g.topo.Policies[origin]
	if _, sel := pol.Export.OriginProviders[prefix]; sel {
		return true
	}
	if _, tagged := pol.Export.NoUpstream[prefix]; tagged {
		return true
	}
	for _, asn := range g.topo.Order {
		p := g.topo.Policies[asn]
		if p.Export.AggregateSpecifics[prefix] {
			return true
		}
		if p.Export.TransitSelective > 0 {
			for _, provider := range g.topo.Graph.Providers(asn) {
				if p.Export.TransitExcluded(asn, prefix, provider) {
					return true
				}
			}
		}
	}
	return false
}

// SAGroundTruthScore validates every vantage's SA detections against the
// generator's configuration, returning (truePositives, falsePositives) —
// the validation the paper could not run.
func (s *Study) SAGroundTruthScore() (tp, fp int) {
	truth := studyTruth{s.Topo}
	a := &core.ExportAnalyzer{Graph: s.Topo.Graph}
	for _, asn := range s.Peers {
		res := a.SAPrefixes(s.PeerView(asn))
		t, f := core.ScoreSA(res, truth)
		tp += t
		fp += f
	}
	return tp, fp
}

// ChurnSeed derives a deterministic rng for ad-hoc experiment extensions.
func (s *Study) ChurnSeed(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Config.Seed ^ salt))
}
