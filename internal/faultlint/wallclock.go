package faultlint

import (
	"go/ast"
	"strings"

	"faultstudy/internal/taxonomy"
)

// wallclock flags direct wall-clock reads and sleeps — time.Now, time.Sleep,
// time.Since, time.Tick — outside the package that owns the injectable
// clock (internal/simenv implements the virtual clock). Everything else must
// thread a clock so experiment runs are deterministic; a raw wall-clock read makes
// behaviour depend on host timing, the classic EDT nondeterminism the paper
// files under request-timing triggers.
//
// Referencing time.Now as a *value* (the injectable-clock default, as in
// `var now = time.Now`) is deliberately not flagged: that reference is the
// injection point.
var wallclockAnalyzer = &Analyzer{
	Name:  "wallclock",
	Doc:   "direct wall-clock call outside the injectable-clock packages",
	Class: taxonomy.ClassEnvDependentTransient,
	Run:   runWallclock,
}

// wallclockFuncs are the package-level time functions that read or depend on
// the wall clock.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// wallclockExemptDirs are directory suffixes whose packages legitimately
// touch the clock (they implement the injectable clock).
var wallclockExemptDirs = []string{
	"internal/simenv",
}

func wallclockExempt(dir string) bool {
	norm := strings.ReplaceAll(dir, "\\", "/")
	for _, suffix := range wallclockExemptDirs {
		if strings.HasSuffix(norm, suffix) {
			return true
		}
	}
	return false
}

func runWallclock(p *Pass) {
	if wallclockExempt(p.Pkg.Dir) {
		return
	}
	for _, f := range p.Pkg.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, resolved := p.Pkg.pkgQualified(file, sel)
			if !resolved || path != "time" || !wallclockFuncs[name] {
				return true
			}
			p.Reportf(call.Pos(),
				"direct time.%s call; thread an injectable clock (simenv virtual time) so runs are deterministic", name)
			return true
		})
	}
}
