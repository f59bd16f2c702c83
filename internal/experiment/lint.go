package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"faultstudy/internal/faultinject"
	"faultstudy/internal/faultlint"
	"faultstudy/internal/stats"
	"faultstudy/internal/taxonomy"
)

// The LINT validation experiment cross-checks faultlint's static
// classification against the seeded ground truth. Every mechanism in the
// registry carries a trigger kind whose DefaultClass is the class the paper's
// manual analysis would assign; every faultinject.Fail site in the simulated
// applications is a raise site the envsite analyzer classifies from source
// alone. Agreement between the two is measured as precision/recall per
// class — a static, pre-execution analogue of the paper's 72–87%
// environment-independent headline (§4, Table 2).

// lintAppDirs maps each studied application to the directory holding its
// simulated implementation, relative to the module root.
var lintAppDirs = map[taxonomy.Application]string{
	taxonomy.AppApache: "internal/apps/httpd",
	taxonomy.AppMySQL:  "internal/apps/sqldb",
	taxonomy.AppGnome:  "internal/apps/desktop",
}

// ClassScore accumulates the confusion tallies for one fault class.
type ClassScore struct {
	// Class is the fault class the tallies are for.
	Class taxonomy.FaultClass
	// TP counts mechanisms of this truth class that faultlint predicted as
	// this class at some raise site.
	TP int
	// FP counts (mechanism, class) predictions of this class whose ground
	// truth is a different class.
	FP int
	// FN counts mechanisms of this truth class with no raise site predicted
	// as this class.
	FN int
}

// Precision is TP/(TP+FP); 1 when nothing of this class was predicted.
func (s ClassScore) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall is TP/(TP+FN); 1 when no mechanism of this class exists.
func (s ClassScore) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 1
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// LintApp is the per-application slice of the validation.
type LintApp struct {
	// App is the application the slice covers.
	App taxonomy.Application
	// Dir is the application's source directory, relative to the module
	// root.
	Dir string
	// Sites is the number of envsite diagnostics with attributed mechanisms.
	Sites int
	// Unattributed counts envsite diagnostics whose mechanism key could not
	// be resolved statically (computed keys outside a case clause).
	Unattributed int
	// Scores holds one entry per fault class, in taxonomy.Classes order.
	Scores []ClassScore
	// Predicted maps each mechanism key to its resolved predicted class.
	Predicted map[string]taxonomy.FaultClass
	// Missing lists registry mechanisms with no attributed raise site.
	Missing []string
}

// TruePositives sums TP across classes.
func (a *LintApp) TruePositives() int {
	n := 0
	for _, s := range a.Scores {
		n += s.TP
	}
	return n
}

// LintReport is the full validation result.
type LintReport struct {
	// Root is the module root the application sources were loaded from.
	Root string
	// Result is the raw analyzer output over the three application packages.
	Result *faultlint.Result
	// Apps holds the per-application slices, in taxonomy.Applications order.
	Apps []LintApp
	// Total aggregates the per-app scores, in taxonomy.Classes order.
	Total []ClassScore
	// PredictedEI is faultlint's predicted environment-independent share
	// over mechanisms it attributed. The paper's per-application EI range is
	// 72–87%.
	PredictedEI stats.Proportion
	// TruthEI is the registry's environment-independent share over every
	// mechanism of the three applications.
	TruthEI stats.Proportion
}

// ModuleRoot locates the module root by walking up from the working
// directory to the first go.mod.
func ModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("experiment: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// resolvePredicted collapses the per-site class votes for one mechanism into
// a single predicted class: any environment-dependent site makes the
// mechanism environment-dependent (one env-guarded raise suffices to trigger
// it from the environment); among env-dependent votes the majority wins,
// ties falling to nontransient (the persistent-condition prior). A
// mechanism is EI only when every site is.
func resolvePredicted(votes map[taxonomy.FaultClass]int) taxonomy.FaultClass {
	edn := votes[taxonomy.ClassEnvDependentNonTransient]
	edt := votes[taxonomy.ClassEnvDependentTransient]
	switch {
	case edt > edn:
		return taxonomy.ClassEnvDependentTransient
	case edn > 0:
		return taxonomy.ClassEnvDependentNonTransient
	case votes[taxonomy.ClassEnvIndependent] > 0:
		return taxonomy.ClassEnvIndependent
	}
	return taxonomy.ClassUnknown
}

// scoreLintApp scores one application's envsite predictions against the
// seeded registry — a pure function of the (read-only) analyzer result and
// the app's registry slice, so the three applications score in parallel.
func scoreLintApp(result *faultlint.Result, reg *faultinject.Registry, app taxonomy.Application) LintApp {
	dir := lintAppDirs[app]
	la := LintApp{App: app, Dir: dir, Predicted: make(map[string]taxonomy.FaultClass)}

	// Gather per-mechanism class votes from the diagnostics raised in
	// this application's directory.
	votes := make(map[string]map[taxonomy.FaultClass]int)
	for _, d := range result.Diagnostics {
		if d.Rule != "envsite" || !strings.Contains(filepath.ToSlash(d.File), dir+"/") {
			continue
		}
		if len(d.Mechanisms) == 0 {
			la.Unattributed++
			continue
		}
		la.Sites++
		for _, mech := range d.Mechanisms {
			if votes[mech] == nil {
				votes[mech] = make(map[taxonomy.FaultClass]int)
			}
			votes[mech][d.Class]++
		}
	}
	for mech, v := range votes {
		la.Predicted[mech] = resolvePredicted(v)
	}

	// Score against ground truth. Predictions for unknown mechanisms
	// (none expected) are ignored; mechanisms never attributed are
	// false negatives for their truth class.
	truth := make(map[string]taxonomy.FaultClass)
	for _, m := range reg.ByApp(app) {
		truth[m.Key] = m.Trigger.DefaultClass()
	}
	for _, class := range taxonomy.Classes() {
		score := ClassScore{Class: class}
		for mech, tc := range truth {
			pc, predicted := la.Predicted[mech]
			switch {
			case tc == class && predicted && pc == class:
				score.TP++
			case tc == class && (!predicted || pc != class):
				score.FN++
			case tc != class && predicted && pc == class:
				score.FP++
			}
		}
		la.Scores = append(la.Scores, score)
	}
	for mech := range truth {
		if _, ok := la.Predicted[mech]; !ok {
			la.Missing = append(la.Missing, mech)
		}
	}
	sort.Strings(la.Missing)
	return la
}

// RunLint loads the three application packages under root, runs the envsite
// analyzer, and scores its predictions against the seeded registry, one
// application per arm over a worker pool (workers ≤ 0 means one per
// processor). Scoring is pure computation over the shared, read-only
// analyzer result, and the per-app reports are folded in application order,
// so the report is identical at every worker count.
func RunLint(root string, workers int) (*LintReport, error) {
	reg := Registry()
	report := &LintReport{Root: root}

	apps := taxonomy.Applications()
	var patterns []string
	for _, app := range apps {
		patterns = append(patterns, lintAppDirs[app])
	}
	pkgs, err := faultlint.Load(root, patterns)
	if err != nil {
		return nil, err
	}
	result, err := faultlint.Run(pkgs, []string{"envsite"})
	if err != nil {
		return nil, err
	}
	report.Result = result

	err = sweep(workers, len(apps), nil, func(i int, _ *Telemetry) (LintApp, error) {
		return scoreLintApp(result, reg, apps[i]), nil
	}, func(_ int, la LintApp) { report.Apps = append(report.Apps, la) })
	if err != nil {
		return nil, err
	}

	// Aggregate totals and the EI-share headline.
	for i, class := range taxonomy.Classes() {
		total := ClassScore{Class: class}
		for _, la := range report.Apps {
			total.TP += la.Scores[i].TP
			total.FP += la.Scores[i].FP
			total.FN += la.Scores[i].FN
		}
		report.Total = append(report.Total, total)
	}
	predEI, predN := 0, 0
	for _, la := range report.Apps {
		for _, pc := range la.Predicted {
			predN++
			if pc == taxonomy.ClassEnvIndependent {
				predEI++
			}
		}
	}
	report.PredictedEI = stats.Proportion{Hits: predEI, N: predN}
	truthEI, truthN := 0, 0
	for _, app := range apps {
		for _, m := range reg.ByApp(app) {
			truthN++
			if m.Trigger.DefaultClass() == taxonomy.ClassEnvIndependent {
				truthEI++
			}
		}
	}
	report.TruthEI = stats.Proportion{Hits: truthEI, N: truthN}
	return report, nil
}

// String renders the per-app and aggregate precision/recall tables, the
// EI-share comparison against the paper's headline, and the unattributed
// residue (EXPERIMENTS.md, LINT).
func (r *LintReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LINT: static classification vs seeded ground truth\n\n")
	tbl := &stats.Table{Header: []string{"app", "class", "TP", "FP", "FN", "precision", "recall"}}
	for _, la := range r.Apps {
		for _, s := range la.Scores {
			tbl.Add(la.App.String(), s.Class.Short(),
				fmt.Sprint(s.TP), fmt.Sprint(s.FP), fmt.Sprint(s.FN),
				fmt.Sprintf("%.2f", s.Precision()), fmt.Sprintf("%.2f", s.Recall()))
		}
	}
	for _, s := range r.Total {
		tbl.Add("all", s.Class.Short(),
			fmt.Sprint(s.TP), fmt.Sprint(s.FP), fmt.Sprint(s.FN),
			fmt.Sprintf("%.2f", s.Precision()), fmt.Sprintf("%.2f", s.Recall()))
	}
	b.WriteString(tbl.String())

	fmt.Fprintf(&b, "\npredicted EI share: %d/%d (%.0f%%); seeded truth %d/%d (%.0f%%); paper per-app range 72%%-87%%\n",
		r.PredictedEI.Hits, r.PredictedEI.N, 100*r.PredictedEI.Value(),
		r.TruthEI.Hits, r.TruthEI.N, 100*r.TruthEI.Value())
	for _, la := range r.Apps {
		if la.Unattributed > 0 || len(la.Missing) > 0 {
			fmt.Fprintf(&b, "%s: %d attributed site(s), %d unattributed, missing mechanisms: %s\n",
				la.App, la.Sites, la.Unattributed, strings.Join(la.Missing, " "))
		}
	}
	return b.String()
}
