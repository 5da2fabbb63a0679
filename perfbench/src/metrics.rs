//! The metric catalogue (names and units, in `BENCHMARK.json` order)
//! and the result printer.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of Tuffy sees. Every workload
/// reports every one (see the README's workload table for what each
/// measures where). `ok_ops_pct` is the complement of the failed-ops
/// count, which the result line also carries as `failed`/`attempted`.
/// The MAP tail latency is printed as a note, not a metric: hypervisor
/// steal moves it too far between runs for any regression bound.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("serve_qps", "1/s"),
    ("map_p50_ms", "ms"),
    ("given_p50_ms", "ms"),
    ("map_cost", "cost"),
    ("apply_p50_ms", "ms"),
    ("apply_p90_ms", "ms"),
    ("recover_s", "s"),
    ("ground_s", "s"),
    ("first_map_s", "s"),
    ("warm_load_s", "s"),
    ("store_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("ok_ops_pct", "%"),
];

/// Per-layer metrics of the traced run, grouped by crate.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("serve.overhead_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.rtt_us", "us"),
    ("serve.frame_bytes", "bytes"),
    ("serve.busy_retries", "count"),
    ("core.query_ms", "ms"),
    ("core.render_ms", "ms"),
    ("core.given_query_ms", "ms"),
    ("core.first_query_ms", "ms"),
    ("core.apply_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("search.schedule_plan_ms", "ms"),
    ("search.run_ms", "ms"),
    ("search.unit_ms", "ms"),
    ("search.condition_ms", "ms"),
    ("search.flips", "count"),
    ("search.flips_per_s", "1/s"),
    ("search.walksat_init_ms", "ms"),
    ("search.mono_ms", "ms"),
    ("search.partitions", "count"),
    ("search.bins", "count"),
    ("search.rounds", "count"),
    ("mrf.components_ms", "ms"),
    ("mrf.cost_eval_ms", "ms"),
    ("mrf.clauses", "count"),
    ("mrf.atoms", "count"),
    ("mrf.clause_bytes", "bytes"),
    ("grounder.ground_s", "s"),
    ("grounder.rounds", "count"),
    ("grounder.queries", "count"),
    ("grounder.bindings", "count"),
    ("grounder.replans", "count"),
    ("grounder.yield", "ratio"),
    ("grounder.patch_ms", "ms"),
    ("grounder.patched_ratio", "ratio"),
    ("grounder.reground_ms", "ms"),
    ("rdbms.exec_s", "s"),
    ("rdbms.exec_share", "ratio"),
    ("rdbms.io_pages", "count"),
    ("rdbms.spill_bytes", "bytes"),
    ("store.save_s", "s"),
    ("store.load_s", "s"),
    ("store.file_bytes", "bytes"),
    ("store.wal_append_us", "us"),
    ("store.wal_fsync_us", "us"),
    ("store.wal_bytes_per_apply", "bytes"),
    ("store.checkpoint_ms", "ms"),
    ("store.replay_ms_per_record", "ms"),
    ("mln.parse_delta_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.layer_sum_ms", "ms"),
    ("trace.served_ms", "ms"),
];

/// What one run produced.
pub struct Outcome {
    /// Operations attempted (requests, applies, builds, gates).
    pub attempted: u64,
    /// Operations that failed, failed gates included.
    pub failed: u64,
    /// Failure messages, printed before the result line.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Run provenance and sample notes, printed as `key: value` lines.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// The catalogue rows this run reports, in order.
    pub fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
        if traced {
            PER_LAYER.to_vec()
        } else {
            END_TO_END.to_vec()
        }
    }

    /// Whether every correctness gate held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Renders the human-readable report plus the final JSON line.
    pub fn render(&self, traced: bool) -> String {
        let rows = Outcome::catalogue(traced);
        let mut out = String::new();
        for (k, v) in &self.notes {
            out.push_str(&format!("# {k}: {v}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("# FAILED: {f}\n"));
        }
        for (name, unit) in &rows {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            out.push_str(&format!("{name:<28} {v:>16.6} {unit}\n"));
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".into()
    }
}
