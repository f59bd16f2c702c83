package main

// layerMetric is one per-layer metric of the traced run, with the prediction
// it stands for: which end-to-end metric it should move, and on which
// workloads a change to the layer should leave the end-to-end numbers flat.
type layerMetric struct {
	name, unit string
	moves      string
	flatOn     string
}

// Prediction columns shared by several rows.
const (
	corpusTput  = "corpus throughput*, alloc_mb"
	serveTput   = "serve throughput*, alloc_mb"
	durableTput = "durable throughput*"
	notCorpus   = "serve, durable"
	notServe    = "corpus, durable"
	allTput     = "cpu_s, throughput* on all three"
)

// layerCatalog lists every per-layer metric, in print order. BENCHMARK.json's
// per_layer list names exactly these.
var layerCatalog = []layerMetric{
	{"simenv.reroll.calls", "count", corpusTput, "serve, durable"},
	{"simenv.reroll.p50_us", "us", corpusTput, "serve, durable"},
	{"simenv.reroll.alloc_b", "B", corpusTput, "serve, durable"},
	{"simenv.new.calls", "count", corpusTput, "serve, durable"},
	{"simenv.new.p50_us", "us", corpusTput, "serve, durable"},
	{"experiment.build_scenario.calls", "count", corpusTput, "serve"},
	{"experiment.build_scenario.p50_us", "us", corpusTput, "serve"},
	{"experiment.build_scenario.alloc_b", "B", corpusTput, "serve"},
	{"supervise.run.calls", "count", "corpus throughput*", notCorpus},
	{"supervise.run.p50_us", "us", "corpus throughput*", notCorpus},
	{"supervise.run.p99_us", "us", "corpus throughput*", notCorpus},
	{"supervise.rung_attempts", "count", "corpus throughput*", notCorpus},
	{"supervise.rung_ok", "count", "corpus throughput*", notCorpus},
	{"supervise.rung_yield", "ratio", "corpus throughput*", notCorpus},
	{"classify.classify.calls", "count", "corpus par_efficiency", notCorpus},
	{"classify.classify.p50_us", "us", "corpus par_efficiency", notCorpus},
	{"corpusgen.generate.self_ms", "ms", "corpus par_efficiency", notCorpus},
	{"corpusgen.generate.alloc_b", "B", "corpus par_efficiency", notCorpus},
	{"scrape.crawl.self_ms", "ms", "corpus par_efficiency", notCorpus},
	{"scrape.crawl.pages", "count", "corpus par_efficiency", notCorpus},
	{"scrape.crawl.gaps", "count", "corpus par_efficiency", notCorpus},
	{"apps.restore.calls", "count", "corpus throughput*", "-"},
	{"apps.restore.p50_us", "us", "corpus throughput*", "-"},
	{"traffic.schedule.self_ms", "ms", "serve throughput*", notServe},
	{"traffic.schedule.alloc_b", "B", "serve throughput*", notServe},
	{"apps.httpd.serve_arrival.calls", "count", serveTput, "corpus"},
	{"apps.httpd.serve_arrival.p50_us", "us", serveTput, "corpus"},
	{"apps.httpd.serve_arrival.p99_us", "us", serveTput, "corpus"},
	{"apps.httpd.serve_arrival.alloc_b", "B", serveTput, "corpus"},
	{"apps.httpd.serve_arrival.ok", "count", serveTput, "corpus"},
	{"apps.httpd.serve_arrival.failed", "count", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.calls", "count", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.p50_us", "us", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.p99_us", "us", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.alloc_b", "B", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.ok", "count", serveTput, "corpus"},
	{"apps.sqldb.serve_arrival.failed", "count", serveTput, "corpus"},
	{"apps.snapshot.calls", "count", serveTput, "corpus"},
	{"apps.snapshot.p50_us", "us", serveTput, "corpus"},
	{"component.reboot.calls", "count", "serve throughput*", notServe},
	{"component.reboot.p50_us", "us", "serve throughput*", notServe},
	{"obsv.counter_inc.calls", "count", serveTput + ", peak_live_heap_mb", notServe},
	{"obsv.counter_inc.p50_us", "us", serveTput + ", peak_live_heap_mb", notServe},
	{"obsv.counter_inc.allocs", "count", serveTput + ", peak_live_heap_mb", notServe},
	{"obsv.histogram_observe.p50_us", "us", serveTput, notServe},
	{"obsv.merge.self_ms", "ms", serveTput + ", peak_live_heap_mb", notServe},
	{"obsv.write_trace.self_ms", "ms", serveTput, notServe},
	{"obsv.write_trace.bytes", "B", serveTput, notServe},
	{"obsv.write_prometheus.self_ms", "ms", serveTput, notServe},
	{"durable.apply.calls", "count", durableTput, "corpus"},
	{"durable.apply.p50_us", "us", durableTput, "corpus"},
	{"durable.apply.p99_us", "us", durableTput, "corpus"},
	{"durable.apply.bytes", "B", durableTput, "corpus"},
	{"durable.checkpoint.calls", "count", durableTput, "corpus"},
	{"durable.checkpoint.p50_us", "us", durableTput, "corpus"},
	{"durable.open.calls", "count", durableTput, "corpus"},
	{"durable.open.p50_us", "us", durableTput, "corpus"},
	{"durable.open.replayed", "count", durableTput, "corpus"},
	{"durable.open.repairs", "count", durableTput, "corpus"},
	{"durable.rollback_to.calls", "count", durableTput, "corpus"},
	{"durable.rollback_to.p50_us", "us", durableTput, "corpus"},
	{"simenv.disk_sync.calls", "count", durableTput, "corpus"},
	{"simenv.disk_sync.p50_us", "us", durableTput, "corpus"},
	{"simenv.disk_read_all.calls", "count", durableTput, "corpus"},
	{"simenv.disk_read_all.bytes", "B", durableTput, "corpus"},
	{"parallel.map_ordered.shard_overhead_us", "us", "par_efficiency on all three", "-"},
	{"runtime.gc_cycles", "count", allTput, "-"},
	{"runtime.gc_cpu_frac", "ratio", allTput, "-"},
	{"runtime.gc_pause_p99_us", "us", allTput, "-"},
	{"trace.accounted_frac", "ratio", "(quality of the trace itself)", "-"},
	{"trace.overhead_frac", "ratio", "(quality of the trace itself)", "-"},
}
