// Package experiment regenerates every table and figure of the paper's
// evaluation (§5), runs the recovery-verification experiment the paper
// proposed as future work, reconciles the results with Lee & Iyer's Tandem
// study (§7), and provides the ablations DESIGN.md calls out.
//
// Two paths produce the tables: the *pipeline* path mines the simulated
// trackers over HTTP exactly as the study did, and the *oracle* path reads
// the curated corpus directly. Both must agree; the benchmarks default to
// the oracle path and the integration tests exercise the pipeline path.
package experiment

import (
	"fmt"
	"strings"
	"time"

	"faultstudy/internal/classify"
	"faultstudy/internal/corpus"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// PaperTables holds the oracle counts of Tables 1–3.
var PaperTables = map[taxonomy.Application]map[taxonomy.FaultClass]int{
	taxonomy.AppApache: {
		taxonomy.ClassEnvIndependent:           36,
		taxonomy.ClassEnvDependentNonTransient: 7,
		taxonomy.ClassEnvDependentTransient:    7,
	},
	taxonomy.AppGnome: {
		taxonomy.ClassEnvIndependent:           39,
		taxonomy.ClassEnvDependentNonTransient: 3,
		taxonomy.ClassEnvDependentTransient:    3,
	},
	taxonomy.AppMySQL: {
		taxonomy.ClassEnvIndependent:           38,
		taxonomy.ClassEnvDependentNonTransient: 4,
		taxonomy.ClassEnvDependentTransient:    2,
	},
}

// TableResult is one regenerated classification table.
type TableResult struct {
	// App is the application.
	App taxonomy.Application
	// Counts is the regenerated per-class tally.
	Counts map[taxonomy.FaultClass]int
	// Paper is the paper's tally.
	Paper map[taxonomy.FaultClass]int
}

// Matches reports whether the regenerated counts equal the paper's.
func (t *TableResult) Matches() bool {
	for c, n := range t.Paper {
		if t.Counts[c] != n {
			return false
		}
	}
	return len(t.Counts) <= len(t.Paper)+1 // tolerate an explicit zero entry
}

// String renders the comparison.
func (t *TableResult) String() string {
	tbl := &stats.Table{Header: []string{"class", "measured", "paper"}}
	for _, c := range taxonomy.Classes() {
		tbl.Add(c.String(), fmt.Sprint(t.Counts[c]), fmt.Sprint(t.Paper[c]))
	}
	return fmt.Sprintf("Table (%s):\n%s", t.App, tbl.String())
}

// Table regenerates one application's classification table from the corpus
// via the reproducible classifier (the oracle path).
func Table(app taxonomy.Application, opts classify.Options) *TableResult {
	classifier := classify.New(opts)
	counts := make(map[taxonomy.FaultClass]int, 3)
	for _, f := range corpus.ByApp(app) {
		counts[classifier.Classify(f.Report()).Class]++
	}
	return &TableResult{App: app, Counts: counts, Paper: PaperTables[app]}
}

// Aggregate reproduces the §5.4 discussion numbers across all three
// applications.
type Aggregate struct {
	// Total is the number of unique faults (139 in the paper).
	Total int
	// Counts tallies per class.
	Counts map[taxonomy.FaultClass]int
	// EIShare holds each application's environment-independent share
	// (72–87% in the paper).
	EIShare map[taxonomy.Application]stats.Proportion
}

// ComputeAggregate builds the aggregate from the oracle tables.
func ComputeAggregate(opts classify.Options) *Aggregate {
	agg := &Aggregate{
		Counts:  make(map[taxonomy.FaultClass]int, 3),
		EIShare: make(map[taxonomy.Application]stats.Proportion, 3),
	}
	for _, app := range taxonomy.Applications() {
		t := Table(app, opts)
		total := 0
		for c, n := range t.Counts {
			agg.Counts[c] += n
			agg.Total += n
			total += n
		}
		agg.EIShare[app] = stats.Proportion{
			Hits: t.Counts[taxonomy.ClassEnvIndependent],
			N:    total,
		}
	}
	return agg
}

// String renders the aggregate in the §5.4 phrasing.
func (a *Aggregate) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Of the %d bugs: %d (%s) environment-dependent-nontransient, %d (%s) environment-dependent-transient.\n",
		a.Total,
		a.Counts[taxonomy.ClassEnvDependentNonTransient],
		stats.Proportion{Hits: a.Counts[taxonomy.ClassEnvDependentNonTransient], N: a.Total}.Percent(),
		a.Counts[taxonomy.ClassEnvDependentTransient],
		stats.Proportion{Hits: a.Counts[taxonomy.ClassEnvDependentTransient], N: a.Total}.Percent())
	for _, app := range taxonomy.Applications() {
		fmt.Fprintf(&b, "  %s environment-independent share: %s\n", app, a.EIShare[app].Percent())
	}
	return b.String()
}

// classifyDefaults returns the study's classifier configuration.
func classifyDefaults() classify.Options { return classify.Options{} }

// fractionCell renders hits out of n with its percentage.
func fractionCell(hits, n int) string {
	return fmt.Sprintf("%d/%d (%s)", hits, n, stats.Proportion{Hits: hits, N: n}.Percent())
}

// meanRepair is the mean time to repair over n recovered episodes (0 when
// nothing recovered).
func meanRepair(total time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// mttrCell renders a mean repair time ("-" when nothing recovered, or the
// repair took no virtual time).
func mttrCell(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}
