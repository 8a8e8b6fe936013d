package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. metrics_test.go pins that file to these tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what the customer of an audited server sees and pays
// for: how fast requests are served with recording on, how fast they
// become durable, how fast the chain audits on one box and across a
// fleet, and the bytes kept and shipped per request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"serve_req_per_s", "req/s", "higher", 0.25},
	{"durable_req_per_s", "req/s", "higher", 0.25},
	{"audit_req_per_s", "req/s", "higher", 0.25},
	{"fleet_audit_req_per_s", "req/s", "higher", 0.25},
	{"stored_bytes_per_req", "B/req", "lower", 0.10},
	{"fleet_wire_bytes_per_req", "B/req", "lower", 0.10},
}

// perLayer is named layer.metric after the internal/ package measured.
var perLayer = []metricDef{
	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "server.busy_s", Unit: "s", Better: "lower"},
	{Name: "server.p50_us", Unit: "us", Better: "lower"},
	{Name: "server.p99_us", Unit: "us", Better: "lower"},
	{Name: "lang.replay_us_per_req", Unit: "us/req", Better: "lower"},
	{Name: "sqlmini.seed_stmts_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "reports.bytes_per_req", Unit: "B/req", Better: "lower"},
	{Name: "reports.encode_s", Unit: "s", Better: "lower"},
	{Name: "reports.decode_s", Unit: "s", Better: "lower"},
	{Name: "epoch.seal_drain_s", Unit: "s", Better: "lower"},
	{Name: "epoch.load_s", Unit: "s", Better: "lower"},
	{Name: "epoch.epochs", Unit: "count", Better: "lower"},
	{Name: "epoch.logical_bytes", Unit: "B", Better: "lower"},
	{Name: "cas.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cas.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "cas.chunks", Unit: "count", Better: "lower"},
	{Name: "cas.logical_per_stored", Unit: "ratio", Better: "higher"},
	{Name: "core.process_op_reports_s", Unit: "s", Better: "lower"},
	{Name: "vstore.redo_s", Unit: "s", Better: "lower"},
	{Name: "vstore.query_s", Unit: "s", Better: "lower"},
	{Name: "vstore.final_snapshot_s", Unit: "s", Better: "lower"},
	{Name: "vstore.dedup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "verifier.reexec_s", Unit: "s", Better: "lower"},
	{Name: "verifier.other_s", Unit: "s", Better: "lower"},
	{Name: "verifier.audit_s", Unit: "s", Better: "lower"},
	{Name: "verifier.group_batches", Unit: "count", Better: "lower"},
	{Name: "verifier.requests_per_batch", Unit: "ratio", Better: "higher"},
	{Name: "verifier.instr_uni", Unit: "count", Better: "lower"},
	{Name: "verifier.instr_multi", Unit: "count", Better: "lower"},
	{Name: "verifier.audit_speedup", Unit: "ratio", Better: "higher"},
	{Name: "fleet.http_requests", Unit: "count", Better: "lower"},
	{Name: "fleet.bytes_chunk", Unit: "B", Better: "lower"},
	{Name: "fleet.bytes_manifest", Unit: "B", Better: "lower"},
	{Name: "fleet.bytes_init", Unit: "B", Better: "lower"},
	{Name: "fleet.bytes_verdict", Unit: "B", Better: "lower"},
	{Name: "fleet.bytes_lease", Unit: "B", Better: "lower"},
	{Name: "fleet.roundtrip_busy_s", Unit: "s", Better: "lower"},
	{Name: "fleet.overhead_s", Unit: "s", Better: "lower"},
	{Name: "fleet.epochs_abandoned", Unit: "count", Better: "lower"},
	{Name: "fleet.wire_per_stored", Unit: "ratio", Better: "lower"},
}
