//! The metrics a run reports and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{valid_name, valid_unit};

/// End-to-end metrics, reported by every workload with tracing off.
/// `op` is the workload's unit of work: one snapshot study (`pipeline`),
/// one delta from `ingest` to its sealed generation (`refresh`), one
/// delta from its hand-off to the refresh worker to the first read reply
/// that carries its generation, under open-loop reads (`serve`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("improvement_factor", "ratio"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.s", "s"),
    ("sim.pages_born", "count"),
    ("crawl.s", "s"),
    ("crawl.pages_captured", "count"),
    ("crawl.us_per_page", "us"),
    ("align.s", "s"),
    ("align.common_pages", "count"),
    ("solve.s", "s"),
    ("solve.columns", "count"),
    ("solve.iterations", "count"),
    ("solve.edges_per_s", "1/s"),
    ("estimate.s", "s"),
    ("engine.column_reuse_ratio", "ratio"),
    ("refresh.apply_ms", "ms"),
    ("refresh.snapshot_ms", "ms"),
    ("refresh.rerank_ms", "ms"),
    ("wal.ms_per_delta", "ms"),
    ("wal.bytes_per_delta", "B"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.replayed_records", "count"),
    ("wal.recovery_ms", "ms"),
    ("protocol.parse_ns", "ns"),
    ("protocol.render_score_ns", "ns"),
    ("protocol.render_topk_ns_per_row", "ns"),
    ("store.score_ns", "ns"),
    ("store.topk_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("frontend.rtt_us", "us"),
    ("frontend.read_p50_low_us", "us"),
    ("frontend.read_p50_us", "us"),
    ("frontend.read_p75_us", "us"),
    ("frontend.read_p90_us", "us"),
    ("frontend.read_p99_us", "us"),
    ("shed_ratio", "ratio"),
    ("generator.late_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// What a workload measured, before it is shaped into the result line.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Render the result line for `declared` metrics (one of [`END_TO_END`],
/// [`PER_LAYER`]). End-to-end metrics must all be present and positive;
/// missing per-layer metrics read 0. Errors name the offending metric.
pub fn result_line(
    m: &Measured,
    declared: &[(&str, &str)],
    fill_zero: bool,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        m.correct,
        m.attempted.max(1),
        m.failed
    );
    for (i, &(name, unit)) in declared.iter().enumerate() {
        if !valid_name(name) || !valid_unit(unit) {
            return Err(format!("invalid metric name or unit: {name} [{unit}]"));
        }
        let value = match m.values.get(name) {
            Some(&v) => v,
            None if fill_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() || (!fill_zero && value <= 0.0) {
            return Err(format!("metric {name} has no usable value: {value}"));
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}"
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Measured {
            correct: true,
            attempted: 3,
            ..Default::default()
        };
        m.set("sim.s", 1.25);
        let line = result_line(&m, PER_LAYER, true).unwrap();
        assert!(line.starts_with(r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"sim.s":{"value":1.25,"unit":"s"},"#));
        assert!(line.contains(r#""cache.hit_ratio":{"value":0.0,"unit":"ratio"}"#));
    }

    #[test]
    fn end_to_end_metrics_must_be_measured_and_positive() {
        let mut m = Measured::default();
        assert!(result_line(&m, END_TO_END, false)
            .unwrap_err()
            .contains("setup_s"));
        for &(name, _) in END_TO_END {
            m.set(name, 1.0);
        }
        assert!(result_line(&m, END_TO_END, false).is_ok());
        m.set("ops_per_s", 0.0);
        assert!(result_line(&m, END_TO_END, false).is_err());
        m.set("ops_per_s", f64::NAN);
        assert!(result_line(&m, END_TO_END, false).is_err());
    }
}
