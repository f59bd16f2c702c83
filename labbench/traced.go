package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"
)

// tracedMeasure is the --trace 1 measurement. Untraced serial runs fill the
// first half of --seconds and give the baseline wall time and GC figures;
// then one traced serial run records entry spans, and the layer pass times
// each layer's public functions on the workload's inputs.
func tracedMeasure(w workload, o options, stdout, stderr io.Writer) (resultRecord, error) {
	var counted ops
	var walls []float64
	digest := ""
	gc0 := readGC()
	t0 := hostNow()
	for i := 0; i < minPairs || hostSince(t0) < time.Duration(o.seconds)*time.Second/2; i++ {
		s := measureRun(w, 1)
		counted.record("untraced workers=1", s.err)
		fmt.Fprintf(stderr, "untraced run %d: workers=1 %.4f s\n", i, s.wall.Seconds())
		if s.err == nil {
			walls = append(walls, s.wall.Seconds())
			digest = s.digest
		}
	}
	gc := diffGC(gc0, readGC())
	gc.cycles /= uint64(max(1, len(walls)))

	tr := newTracer()
	tr.beginRun()
	root := tr.begin("entry")
	res, err := w.run(1, tr)
	if err == nil {
		err = res.gate
		tr.do("digest", func() error {
			if d := digestOf(res.parts); digest != "" && d != digest {
				err = fmt.Errorf("traced output digest %s differs from the untraced digest %s", d, digest)
			}
			return nil
		})
	}
	tr.end(root)
	counted.record("traced workers=1", err)
	entry := tr.spans[root-1]

	lp, err := runLayerPass(w.plan(), tr)
	if err != nil {
		return resultRecord{}, err
	}
	base := median(walls)
	aggs := aggregate(tr.spans[lp.firstSpan:])
	m := layerMetrics(lp, aggs, gc)
	m["trace.accounted_frac"] = metric{accountedFrac(lp, aggs, base), "ratio"}
	m["trace.overhead_frac"] = metric{(entry.End-entry.Start).Seconds()/base - 1, "ratio"}
	printLayers(stdout, m, aggs)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return resultRecord{}, err
	}
	fmt.Fprintf(stdout, "spans written to %s; untraced serial wall %.4f s (median of %d)\n", path, base, len(walls))
	return counted.result(stdout, m, digest), nil
}

// layerAgg aggregates the spans of one layer.
type layerAgg struct {
	calls int
	durUS []float64 // per-call duration, children included
	self  time.Duration
}

// aggregate groups spans by name.
func aggregate(spans []span) map[string]*layerAgg {
	self := selfTimes(spans)
	aggs := map[string]*layerAgg{}
	for i, s := range spans {
		a := aggs[s.Name]
		if a == nil {
			a = &layerAgg{}
			aggs[s.Name] = a
		}
		a.calls++
		a.durUS = append(a.durUS, float64(s.End-s.Start)/1e3)
		a.self += self[i]
	}
	return aggs
}

// layerMetrics derives every catalogued per-layer metric except the trace's
// own two from the layer pass and its aggregated spans.
func layerMetrics(lp *layerPass, aggs map[string]*layerAgg, gc gcDelta) map[string]metric {
	m := map[string]metric{}
	for _, c := range layerCatalog {
		var v float64
		cut := strings.LastIndexByte(c.name, '.')
		layer, stat := c.name[:cut], c.name[cut+1:]
		a := aggs[layer]
		if a == nil {
			a = &layerAgg{}
		}
		perCall := func(i int) float64 {
			if a.calls == 0 || lp.alloc[layer] == nil {
				return 0
			}
			return float64(lp.alloc[layer][i]) / float64(a.calls)
		}
		switch {
		case c.name == "supervise.rung_attempts":
			v = float64(lp.rungs.attempts)
		case c.name == "supervise.rung_ok":
			v = float64(lp.rungs.ok)
		case c.name == "supervise.rung_yield":
			if lp.rungs.attempts > 0 {
				v = float64(lp.rungs.ok) / float64(lp.rungs.attempts)
			}
		case c.name == "parallel.map_ordered.shard_overhead_us":
			v = lp.shardUS
		case c.name == "runtime.gc_cycles":
			v = float64(gc.cycles)
		case c.name == "runtime.gc_cpu_frac":
			v = gc.cpuFrac
		case c.name == "runtime.gc_pause_p99_us":
			_, v, _ = tailQuantile(gc.pauses, 990)
			v *= 1e6
		case layer == "trace":
			continue
		case stat == "calls":
			v = float64(a.calls)
		case stat == "p50_us":
			v = median(a.durUS)
		case stat == "p99_us":
			_, v, _ = tailQuantile(a.durUS, 990)
		case stat == "self_ms":
			v = float64(a.self) / 1e6
		case stat == "alloc_b":
			v = perCall(0)
		case stat == "allocs":
			v = perCall(1)
		default:
			v = lp.counts[c.name]
		}
		m[c.name] = metric{v, c.unit}
	}
	return m
}

// accountedFrac estimates how much of one untraced serial run the layers
// explain: each layer's mean span time in the pass, times the calls one
// workload run makes of it (where the workload's inputs say), summed over
// layers and divided by the serial wall time.
func accountedFrac(lp *layerPass, aggs map[string]*layerAgg, serialWall float64) float64 {
	if serialWall <= 0 {
		return 0
	}
	var total float64
	for layer, n := range lp.plan.perRun {
		if layer == "parallel.map_ordered" {
			total += lp.shardUS / 1e6 * n
			continue
		}
		if a := aggs[layer]; a != nil && a.calls > 0 {
			var sum float64
			for _, d := range a.durUS {
				sum += d
			}
			total += sum / float64(a.calls) / 1e6 * n
		}
	}
	return total / serialWall
}

// printLayers prints the per-layer table: each metric with its unit, the
// tail percentile and sample count behind each p99, and the end-to-end
// metric it should move.
func printLayers(w io.Writer, m map[string]metric, aggs map[string]*layerAgg) {
	fmt.Fprintf(w, "%-42s %14s %-6s %-44s %s\n", "per-layer metric", "value", "unit", "should move", "predicted flat on")
	for _, c := range layerCatalog {
		note := ""
		if strings.HasSuffix(c.name, ".p99_us") {
			a := aggs[strings.TrimSuffix(c.name, ".p99_us")]
			if a != nil {
				q, _, _ := tailQuantile(a.durUS, 990)
				note = fmt.Sprintf(" (p%g of n=%d)", 100*q, a.calls)
			}
		}
		fmt.Fprintf(w, "%-42s %14.4f %-6s %-44s %s%s\n", c.name, m[c.name].Value, c.unit, c.moves, c.flatOn, note)
	}
}
