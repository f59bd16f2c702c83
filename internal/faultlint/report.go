package faultlint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// JSONSchemaVersion identifies the report wire format. The documented schema
// (EXPERIMENTS.md, "LINT") is:
//
//	{
//	  "version": 1,
//	  "packages": <int>,
//	  "rules": ["envsite", ...],
//	  "diagnostics": [
//	    {
//	      "rule": "...", "class": "<taxonomy class name>",
//	      "file": "...", "line": N, "col": N, "message": "...",
//	      "mechanisms": ["app/key", ...],      // envsite only
//	      "suppressed": true, "suppressReason": "..."  // when suppressed
//	    }, ...
//	  ],
//	  "summary": {"active": N, "advisory": N, "suppressed": N,
//	              "byRule": {...}, "byClass": {...}}
//	}
//
// "active" counts unsuppressed findings (advisory included); "advisory"
// counts the subset from classification rules, which do not fail the gate.
const JSONSchemaVersion = 1

// jsonReport is the serialized form of a Result.
type jsonReport struct {
	Version     int          `json:"version"`
	Packages    int          `json:"packages"`
	Rules       []string     `json:"rules"`
	Diagnostics []Diagnostic `json:"diagnostics"`
	Summary     jsonSummary  `json:"summary"`
}

type jsonSummary struct {
	Active     int            `json:"active"`
	Advisory   int            `json:"advisory"`
	Suppressed int            `json:"suppressed"`
	ByRule     map[string]int `json:"byRule"`
	ByClass    map[string]int `json:"byClass"`
}

// RenderJSON serializes the result in the documented schema.
func RenderJSON(r *Result) ([]byte, error) {
	rep := jsonReport{
		Version:     JSONSchemaVersion,
		Packages:    r.Packages,
		Rules:       r.Rules,
		Diagnostics: r.Diagnostics,
		Summary: jsonSummary{
			ByRule:  make(map[string]int),
			ByClass: make(map[string]int),
		},
	}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{}
	}
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			rep.Summary.Suppressed++
			continue
		}
		rep.Summary.Active++
		if d.Advisory {
			rep.Summary.Advisory++
		}
		rep.Summary.ByRule[d.Rule]++
		rep.Summary.ByClass[d.Class.String()]++
	}
	return json.MarshalIndent(rep, "", "  ")
}

// RenderText formats the result for terminals: one line per finding, then a
// per-rule summary. Suppressed findings appear only with verbose=true.
func RenderText(r *Result, verbose bool) string {
	var b strings.Builder
	active, advisory, suppressed := 0, 0, 0
	for _, d := range r.Diagnostics {
		if d.Suppressed {
			suppressed++
			if verbose {
				fmt.Fprintf(&b, "%s: [%s, suppressed] %s", d.Pos(), d.Rule, d.Message)
				if d.SuppressReason != "" {
					fmt.Fprintf(&b, " (reason: %s)", d.SuppressReason)
				}
				b.WriteByte('\n')
			}
			continue
		}
		active++
		if d.Advisory {
			advisory++
		}
		fmt.Fprintf(&b, "%s: [%s %s] %s", d.Pos(), d.Rule, d.Class.Short(), d.Message)
		if len(d.Mechanisms) > 0 {
			fmt.Fprintf(&b, " {%s}", strings.Join(d.Mechanisms, ", "))
		}
		b.WriteByte('\n')
	}
	byRule := make(map[string]int)
	for _, d := range r.Diagnostics {
		if !d.Suppressed {
			byRule[d.Rule]++
		}
	}
	rules := make([]string, 0, len(byRule))
	for rule := range byRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	fmt.Fprintf(&b, "faultlint: %d package(s), %d finding(s) (%d advisory), %d suppressed",
		r.Packages, active, advisory, suppressed)
	if len(rules) > 0 {
		parts := make([]string, len(rules))
		for i, rule := range rules {
			parts[i] = fmt.Sprintf("%s=%d", rule, byRule[rule])
		}
		fmt.Fprintf(&b, " (%s)", strings.Join(parts, ", "))
	}
	b.WriteByte('\n')
	return b.String()
}
