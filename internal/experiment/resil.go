package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"faultstudy/internal/bugsite"
	"faultstudy/internal/chaoshttp"
	"faultstudy/internal/obsv"
	"faultstudy/internal/parallel"
	"faultstudy/internal/resilient"
	"faultstudy/internal/scrape"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// resilHost is the synthetic host every RESIL crawl targets; the whole sweep
// runs over in-memory handlers, so the name never resolves.
const resilHost = "http://chaos.test"

// ResilPolicies is the fixed client-policy axis of the RESIL sweep, in arm
// order: the bare client, the retry-centric middle, and the full ladder with
// hedging and breakers.
func ResilPolicies() []string { return []string{"naive", "retry", "full"} }

// ResilConfig tunes the RESIL chaos sweep: every chaoshttp catalogue fault
// crossed with every client policy, each arm a fresh mine of the Apache
// bugsite through an injector.
type ResilConfig struct {
	// Seed drives the bugsite, the fault targeting, and the retry jitter.
	Seed int64
	// MaxPages caps each arm's crawl (0 means 150).
	MaxPages int
	// Telemetry, when non-nil, receives per-URL fault episodes and the resil
	// metric family from every arm. Nil costs nothing.
	Telemetry *Telemetry
	// Workers bounds the worker pool the arms are sharded over (0 or
	// negative means one per processor; 1 is serial). Reports and telemetry
	// are byte-identical at every worker count.
	Workers int
}

func (c ResilConfig) withDefaults() ResilConfig {
	if c.MaxPages <= 0 {
		c.MaxPages = 150
	}
	return c
}

// ResilArm is one (fault, policy) cell of the sweep: the coverage of its
// crawl, the fate of the URLs the injector targeted, and what the client
// spent getting there.
type ResilArm struct {
	// Fault is the chaos fault active in this arm.
	Fault string
	// Class is the fault's paper class (EDT or EDN).
	Class taxonomy.FaultClass
	// Policy is the resilient-client policy name.
	Policy string
	// Attempted, Fetched, NonOK, Gaps summarize the crawl's coverage.
	Attempted, Fetched, NonOK, Gaps int
	// Targeted counts URLs the injector actually faulted.
	Targeted int
	// Recovered counts targeted URLs that were eventually fetched clean.
	Recovered int
	// Retries, Hedges, FastFails, BudgetDenied, Truncations are the client's
	// recovery spend.
	Retries, Hedges, FastFails, BudgetDenied, Truncations int
	// MTTR is the mean time to repair over recovered URLs (first injected
	// failure to first clean fetch, virtual clock).
	MTTR time.Duration
}

// Survival is the arm's recovered-over-targeted proportion.
func (a ResilArm) Survival() stats.Proportion {
	return stats.Proportion{Hits: a.Recovered, N: a.Targeted}
}

// ResilReport is the assembled sweep, arms in (fault, policy) order.
type ResilReport struct {
	// Seed is the sweep's root seed.
	Seed int64
	// MaxPages is the per-arm crawl cap used.
	MaxPages int
	// Arms holds every (fault, policy) cell.
	Arms []ResilArm
}

// RunResil runs the RESIL sweep: chaoshttp.Catalog() × ResilPolicies(), one
// arm per cell. Each arm crawls a fresh in-memory Apache bugsite through a
// chaos injector with exactly one fault active, using a resilient client
// configured by the arm's policy, all on a shared virtual clock.
//
// Arms are independent shards on a pool of cfg.Workers workers: each derives
// its seed from (Seed, arm index) via the parallel engine's SplitMix64
// stream and records into a private telemetry, and the shards are reduced in
// fixed arm order — so reports, traces, and metric dumps are byte-identical
// at every worker count.
func RunResil(cfg ResilConfig) (*ResilReport, error) {
	cfg = cfg.withDefaults()
	faults := chaoshttp.Catalog()
	policies := ResilPolicies()
	n := len(faults) * len(policies)
	rep := &ResilReport{Seed: cfg.Seed, MaxPages: cfg.MaxPages, Arms: make([]ResilArm, 0, n)}
	err := sweep(cfg.Workers, n, cfg.Telemetry, func(i int, tel *Telemetry) (ResilArm, error) {
		return runResilArm(cfg, i, faults[i/len(policies)], policies[i%len(policies)], tel)
	}, func(_ int, a ResilArm) { rep.Arms = append(rep.Arms, a) })
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// runResilArm runs one (fault, policy) cell: build the chaos-wrapped site,
// crawl it with the policy's client, and distill the arm. Everything it does
// is a pure function of (cfg, arm index); it shares no state with other
// arms.
func runResilArm(cfg ResilConfig, armIdx int, fault chaoshttp.Fault, policy string, tel *Telemetry) (ResilArm, error) {
	arm := ResilArm{Fault: fault.Name, Class: fault.Class, Policy: policy}
	armSeed := parallel.Derive(cfg.Seed, uint64(armIdx))
	clock := chaoshttp.NewVirtualClock()
	site := bugsite.NewApacheSite(bugsite.Config{Seed: cfg.Seed})
	inj := chaoshttp.NewInjector(
		chaoshttp.Config{Seed: armSeed, Faults: []chaoshttp.Fault{fault}},
		chaoshttp.HandlerTransport{Handler: site}, clock)
	pol, err := resilient.PolicyByName(policy)
	if err != nil {
		return arm, fmt.Errorf("experiment: resil arm %d: %w", armIdx, err)
	}
	client := resilient.New(pol,
		resilient.WithTransport(inj),
		resilient.WithClock(clock),
		resilient.WithRand(rand.New(rand.NewSource(armSeed))))
	crawler := scrape.NewCrawler(
		scrape.WithClient(client.HTTPClient()),
		scrape.WithSleeper(clock),
		scrape.WithPathFilter("/bugdb/"),
		scrape.WithRetryAfterCap(0), // all Retry-After handling belongs to the policy under test
		scrape.WithMaxPages(cfg.MaxPages))
	pages, err := crawler.Crawl(context.Background(), resilHost+"/bugdb/")
	if err != nil {
		return arm, fmt.Errorf("experiment: resil arm %d (%s × %s): %w", armIdx, fault.Name, policy, err)
	}

	cov := scrape.CoverageOf(pages)
	arm.Attempted, arm.Fetched, arm.NonOK, arm.Gaps = cov.Attempted, cov.Fetched, cov.NonOK, cov.Gaps
	st := client.Stats()
	arm.Retries, arm.Hedges, arm.FastFails = st.Retries, st.Hedges, st.FastFails
	arm.BudgetDenied, arm.Truncations = st.BudgetDenied, st.Truncations

	var repair time.Duration
	outcomes := inj.Outcomes()
	for _, o := range outcomes {
		arm.Targeted++
		if o.Recovered {
			arm.Recovered++
			repair += o.RecoveredAt - o.FirstAt
		}
	}
	if arm.Recovered > 0 {
		arm.MTTR = repair / time.Duration(arm.Recovered)
	}
	observeResilArm(tel, arm, inj, clock.Now())
	return arm, nil
}

// observeResilArm folds one arm into its telemetry: an episode per targeted
// URL (activation, one failed-retry span per later injection, verdict) and
// the resil metric family. A nil telemetry records nothing.
func observeResilArm(tel *Telemetry, arm ResilArm, inj *chaoshttp.Injector, endAt time.Duration) {
	if tel == nil {
		return
	}
	obsv.RegisterBridgeHelp(tel.Registry)
	class := arm.Class.Short()
	rec := tel.Recorder
	rec.SetContext(obsv.Context{App: "miner", Class: class})
	laterInjections := make(map[string][]chaoshttp.Injection)
	for _, iv := range inj.Injections() {
		laterInjections[iv.URL] = append(laterInjections[iv.URL], iv)
	}
	for _, o := range inj.Outcomes() {
		rec.Begin(o.FirstAt, o.URL, o.Fault)
		rec.Note(o.FirstAt, obsv.Span{Kind: obsv.SpanActivation, Note: o.Fault})
		for _, iv := range laterInjections[o.URL][1:] {
			rec.Note(iv.At, obsv.Span{Kind: obsv.SpanRetry, Rung: arm.Policy, Outcome: "fail"})
		}
		verdict := obsv.OutcomeLost
		if o.Recovered {
			verdict = obsv.OutcomeRecovered
			rec.Note(o.RecoveredAt, obsv.Span{Kind: obsv.SpanRetry, Rung: arm.Policy, Outcome: "ok"})
			rec.End(o.RecoveredAt, obsv.OutcomeRecovered, arm.Policy)
			tel.Registry.Histogram(obsv.MetricResilMTTRSeconds, obsv.LatencyBuckets,
				obsv.L("policy", arm.Policy, "class", class)...).ObserveDuration(o.RecoveredAt - o.FirstAt)
		} else {
			rec.End(endAt, obsv.OutcomeLost, arm.Policy)
		}
		tel.Registry.Counter(obsv.MetricResilURLs,
			obsv.L("policy", arm.Policy, "fault", arm.Fault, "class", class, "outcome", verdict)...).Inc()
	}
	pageResults := []struct {
		result string
		n      int
	}{{"fetched", arm.Fetched}, {"non2xx", arm.NonOK}, {"gap", arm.Gaps}}
	for _, pr := range pageResults {
		if pr.n > 0 {
			tel.Registry.Counter(obsv.MetricResilPages,
				obsv.L("policy", arm.Policy, "fault", arm.Fault, "result", pr.result)...).Add(float64(pr.n))
		}
	}
	spend := []struct {
		metric string
		n      int
	}{
		{obsv.MetricResilRetries, arm.Retries},
		{obsv.MetricResilHedges, arm.Hedges},
		{obsv.MetricResilFastFails, arm.FastFails},
		{obsv.MetricResilBudgetDenied, arm.BudgetDenied},
		{obsv.MetricResilTruncations, arm.Truncations},
	}
	for _, sp := range spend {
		if sp.n > 0 {
			tel.Registry.Counter(sp.metric,
				obsv.L("policy", arm.Policy, "class", class)...).Add(float64(sp.n))
		}
	}
}

// SurvivalBy aggregates recovered-over-targeted across the arms of one
// class under one policy.
func (r *ResilReport) SurvivalBy(class taxonomy.FaultClass, policy string) stats.Proportion {
	var p stats.Proportion
	for _, a := range r.Arms {
		if a.Class != class || a.Policy != policy {
			continue
		}
		p.N += a.Targeted
		p.Hits += a.Recovered
	}
	return p
}

// Check asserts the sweep's headline claim — the paper's Table 8 logic
// replayed at the HTTP layer: under the full policy, retry-centric recovery
// survives at least 90% of transient (EDT) chaos and at most 10% of
// nontransient (EDN) chaos. It returns nil when both bounds hold.
func (r *ResilReport) Check() error {
	edt := r.SurvivalBy(taxonomy.ClassEnvDependentTransient, "full")
	edn := r.SurvivalBy(taxonomy.ClassEnvDependentNonTransient, "full")
	if edt.N == 0 || edn.N == 0 {
		return fmt.Errorf("experiment: resil check: empty class (EDT %d, EDN %d targeted URLs)", edt.N, edn.N)
	}
	if edt.Value() < 0.9 {
		return fmt.Errorf("experiment: resil check: full-policy EDT survival %s below 90%%", edt.Percent())
	}
	if edn.Value() > 0.1 {
		return fmt.Errorf("experiment: resil check: full-policy EDN survival %s above 10%%", edn.Percent())
	}
	return nil
}

// String renders the full matrix, the per-class survival aggregate, and the
// headline.
func (r *ResilReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "RESIL chaos sweep (seed %d, %d arms, <=%d pages/arm):\n",
		r.Seed, len(r.Arms), r.MaxPages)
	tbl := &stats.Table{Header: []string{
		"fault", "class", "policy", "fetched", "gaps", "survival", "retries", "hedges", "fastfail", "denied", "mttr"}}
	for _, a := range r.Arms {
		s := a.Survival()
		tbl.Add(a.Fault, a.Class.Short(), a.Policy,
			fmt.Sprintf("%d/%d", a.Fetched, a.Attempted),
			fmt.Sprint(a.Gaps),
			fractionCell(s.Hits, s.N),
			fmt.Sprint(a.Retries), fmt.Sprint(a.Hedges), fmt.Sprint(a.FastFails),
			fmt.Sprint(a.BudgetDenied), mttrCell(a.MTTR))
	}
	b.WriteString(tbl.String())
	b.WriteString("\nSurvival of chaos-targeted URLs, by class x policy:\n")
	agg := &stats.Table{Header: []string{"class", "naive", "retry", "full"}}
	for _, class := range []taxonomy.FaultClass{
		taxonomy.ClassEnvDependentTransient, taxonomy.ClassEnvDependentNonTransient} {
		row := []string{class.Short()}
		for _, pol := range ResilPolicies() {
			p := r.SurvivalBy(class, pol)
			row = append(row, fractionCell(p.Hits, p.N))
		}
		agg.Add(row...)
	}
	b.WriteString(agg.String())
	edt := r.SurvivalBy(taxonomy.ClassEnvDependentTransient, "full")
	edn := r.SurvivalBy(taxonomy.ClassEnvDependentNonTransient, "full")
	fmt.Fprintf(&b,
		"\nHeadline: the full client recovers %s of transient (EDT) chaos but only %s of\nnontransient (EDN) chaos — generic retry pays off exactly where the paper's\nTable 8 says it does, and almost nowhere else.\n",
		edt.Percent(), edn.Percent())
	return b.String()
}
