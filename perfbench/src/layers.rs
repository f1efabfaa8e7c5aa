//! Per-layer metrics of a traced run, its span file, and the
//! self-time-by-layer table.
//!
//! Times and counts are means per traced operation (one cold audit,
//! or one edit), except `cpg.slowest_fn_s` (the maximum),
//! `core.cache.bytes` (the largest cache file), the hit rates, the
//! daemon counters (read once from `status`), the query latency median
//! and the generator's lateness percentile.

use std::collections::BTreeMap;

use crate::spans::{self, Tracer};
use crate::stats;
use crate::{Args, Outcome};

/// Span names that belong to the layers the mirror pipeline drives,
/// grouped by layer. Their self times sum to the work of one pass per
/// layer.
const LAYER_SPANS: [(&str, &[&str]); 7] = [
    ("clex", &["clex.defines", "clex.lex"]),
    ("cparse", &["cparse.parse"]),
    ("rcapi", &["rcapi.discover", "rcapi.merge"]),
    (
        "cpg",
        &[
            "cpg.graph",
            "cpg.cfg",
            "cpg.facts",
            "cpg.origins",
            "cpg.errorpath",
            "cpg.feasibility",
        ],
    ),
    ("progdb", &["progdb.extract", "progdb.build"]),
    (
        "checkers",
        &["checkers.template", "checkers.dedup", "checkers.report"],
    ),
    ("delta", &["delta.engine"]),
];

/// Daemon counters from the `status` RPC.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    /// Requests shed with `overloaded`.
    pub sheds: f64,
    /// Requests that missed their deadline.
    pub deadline_misses: f64,
    /// Deepest the request queue got.
    pub queue_peak: f64,
}

/// What a traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct Extra {
    /// Traced operations.
    pub ops: usize,
    /// Wall time of the layer pipeline with the recorder disabled.
    pub plain_secs: f64,
    /// Wall time of the same pipeline recording spans.
    pub traced_secs: f64,
    /// Daemon counters (edit-stream only).
    pub serve: ServeCounters,
    /// How late the open-loop generator sent each request, in ms.
    pub late_ms: Vec<f64>,
    /// Each query's latency from its due time, in ms.
    pub query_ms: Vec<f64>,
}

/// Self time per layer in seconds, with `cparse` net of the lex time
/// `parse_str_limited` spends internally.
fn layer_self(
    by_self: &BTreeMap<&str, f64>,
    by_total: &BTreeMap<&str, f64>,
) -> Vec<(&'static str, f64)> {
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    LAYER_SPANS
        .iter()
        .map(|(layer, names)| {
            let mut s: f64 = names.iter().map(|n| get(by_self, n)).sum();
            if *layer == "cparse" {
                s = (s - get(by_total, "clex.lex")).max(0.0);
            }
            (*layer, s)
        })
        .collect()
}

/// Adds every per-layer metric to `out`, writes the span file and
/// prints the layer table.
pub fn report(out: &mut Outcome, args: &Args, t: &Tracer, extra: &Extra) {
    let spans = t.spans();
    let counters = t.counters();
    let by_self = spans::self_by_name(&spans);
    let by_total = spans::total_by_name(&spans);
    let ops = extra.ops.max(1) as f64;
    let n = extra.ops;
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let per_op_self = |k: &str| get(&by_self, k) / ops;
    let per_op_total = |k: &str| get(&by_total, k) / ops;
    let per_op_count = |k: &str| get(&counters, k) / ops;
    let layers = layer_self(&by_self, &by_total);
    let layer = |name: &str| layers.iter().find(|(l, _)| *l == name).map_or(0.0, |l| l.1) / ops;
    let layer_sum: f64 = layers.iter().map(|l| l.1).sum::<f64>() / ops;
    let ratio = |hits: &str, lookups: &str| {
        let l = get(&counters, lookups);
        if l == 0.0 {
            0.0
        } else {
            get(&counters, hits) / l
        }
    };

    out.metric("clex.self_s", layer("clex"), "s/op", n);
    out.metric("clex.tokens", per_op_count("clex.tokens"), "count/op", n);
    out.metric("cparse.self_s", layer("cparse"), "s/op", n);
    out.metric(
        "cparse.functions",
        per_op_count("cparse.functions"),
        "count/op",
        n,
    );
    out.metric(
        "cparse.parse_errors",
        per_op_count("cparse.parse_errors"),
        "count/op",
        n,
    );
    out.metric("rcapi.discover_s", per_op_self("rcapi.discover"), "s/op", n);
    out.metric("rcapi.merge_s", per_op_self("rcapi.merge"), "s/op", n);
    out.metric("cpg.cfg_s", per_op_self("cpg.cfg"), "s/op", n);
    out.metric("cpg.facts_s", per_op_self("cpg.facts"), "s/op", n);
    out.metric("cpg.errorpath_s", per_op_self("cpg.errorpath"), "s/op", n);
    out.metric(
        "cpg.cfg_nodes",
        per_op_count("cpg.cfg_nodes"),
        "count/op",
        n,
    );
    out.metric("cpg.origins_s", per_op_self("cpg.origins"), "s/op", n);
    out.metric(
        "cpg.feasibility_s",
        per_op_self("cpg.feasibility"),
        "s/op",
        n,
    );
    out.metric(
        "cpg.slowest_fn_s",
        get(&counters, "cpg.slowest_fn_s"),
        "s",
        n,
    );
    out.metric(
        "cpg.capped_fns",
        per_op_count("cpg.capped_fns"),
        "count/op",
        n,
    );
    out.metric("progdb.extract_s", per_op_self("progdb.extract"), "s/op", n);
    out.metric("progdb.build_s", per_op_self("progdb.build"), "s/op", n);
    out.metric(
        "checkers.template_s",
        per_op_self("checkers.template"),
        "s/op",
        n,
    );
    out.metric(
        "checkers.findings",
        per_op_count("checkers.findings"),
        "count/op",
        n,
    );
    out.metric("delta.engine_s", per_op_self("delta.engine"), "s/op", n);
    out.metric(
        "delta.findings",
        per_op_count("delta.findings"),
        "count/op",
        n,
    );
    let call = per_op_total("core.audit.call");
    out.metric("core.audit.call_s", call, "s/op", n);
    out.metric("core.audit.unaccounted_s", call - layer_sum, "s/op", n);
    out.metric(
        "core.cache.save_s",
        per_op_total("core.cache.save"),
        "s/op",
        n,
    );
    out.metric(
        "core.cache.load_s",
        per_op_total("core.cache.load"),
        "s/op",
        n,
    );
    out.metric(
        "core.cache.bytes",
        get(&counters, "core.cache.bytes"),
        "bytes",
        n,
    );
    out.metric(
        "core.cache.parse_hit_rate",
        ratio("cache.parse_hits", "cache.parse_lookups"),
        "ratio",
        n,
    );
    out.metric(
        "core.cache.check_hit_rate",
        ratio("cache.check_hits", "cache.check_lookups"),
        "ratio",
        n,
    );
    out.metric("project.scan_s", per_op_total("project.scan"), "s/op", n);
    out.metric(
        "core.diff.delta_s",
        per_op_total("core.diff.delta"),
        "s/op",
        n,
    );
    out.metric(
        "sweep.left_behind",
        per_op_count("sweep.left_behind"),
        "count/op",
        n,
    );
    out.metric("core.serve.sheds", extra.serve.sheds, "count", 1);
    out.metric(
        "core.serve.deadline_misses",
        extra.serve.deadline_misses,
        "count",
        1,
    );
    out.metric("core.serve.queue_peak", extra.serve.queue_peak, "count", 1);
    out.metric(
        "core.serve.query_ms_p50",
        stats::median(&extra.query_ms),
        "ms",
        extra.query_ms.len(),
    );
    let mut late = extra.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let late_p90 = if late.is_empty() {
        0.0
    } else {
        stats::percentile(&late, 90.0)
    };
    out.metric("loadgen.late_ms_p90", late_p90, "ms", late.len());
    let overhead = if extra.plain_secs > 0.0 {
        (extra.traced_secs - extra.plain_secs) / extra.plain_secs
    } else {
        0.0
    };
    out.metric("trace.overhead_share", overhead, "ratio", n);

    if let Err(e) = write_spans(args, &spans) {
        out.problem(format!("cannot write the span file: {e}"));
    }
    print_layer_table(args, &layers, &by_self, &by_total, ops, call, layer_sum);
}

fn write_spans(args: &Args, spans: &[spans::Span]) -> std::io::Result<()> {
    let path = crate::span_file(args);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans::write_jsonl(spans, &mut w)?;
    std::io::Write::flush(&mut w)?;
    eprintln!("spans: {} written to {}", spans.len(), path.display());
    Ok(())
}

fn print_layer_table(
    args: &Args,
    layers: &[(&str, f64)],
    by_self: &BTreeMap<&str, f64>,
    by_total: &BTreeMap<&str, f64>,
    ops: f64,
    call: f64,
    layer_sum: f64,
) {
    let op_total = by_total.get("op").copied().unwrap_or(0.0) / ops;
    eprintln!(
        "== self time by layer, {} seed {}, per traced op ({} ops; op = {:.4} s) ==",
        args.workload, args.seed, ops, op_total
    );
    let share = |s: f64| {
        if op_total > 0.0 {
            100.0 * s / op_total
        } else {
            0.0
        }
    };
    let mut rows: Vec<(String, f64)> = layers
        .iter()
        .map(|(l, s)| (l.to_string(), s / ops))
        .collect();
    for name in [
        "project.scan",
        "core.audit.call",
        "core.cache.save",
        "core.cache.load",
        "core.diff.delta",
        "sweep.left_behind",
        "op",
    ] {
        if let Some(s) = by_self.get(name) {
            rows.push((format!("{name} (self)"), s / ops));
        }
    }
    for (name, s) in rows {
        eprintln!("  {name:<26} {s:>10.5} s {:>6.1}%", share(s));
    }
    let hot = by_self.get("cpg.origins").copied().unwrap_or(0.0)
        + by_self.get("cpg.feasibility").copied().unwrap_or(0.0);
    eprintln!(
        "  cpg.origins+feasibility share of layer self time: {:.1}%",
        if layer_sum > 0.0 {
            100.0 * hot / ops / layer_sum
        } else {
            0.0
        }
    );
    eprintln!(
        "  core.audit.call {:.5} s vs one pass per layer {:.5} s: unaccounted {:.5} s",
        call,
        layer_sum,
        call - layer_sum
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cparse_self_time_is_net_of_the_standalone_lex() {
        let by_self = BTreeMap::from([
            ("cparse.parse", 5.0),
            ("clex.lex", 2.0),
            ("clex.defines", 0.5),
        ]);
        let by_total = by_self.clone();
        let l = layer_self(&by_self, &by_total);
        let get = |n: &str| l.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("clex"), 2.5);
        assert_eq!(get("cparse"), 3.0);
        assert_eq!(get("cpg"), 0.0);
        // One pass per layer: parse (which lexes) plus the define scan.
        assert_eq!(l.iter().map(|x| x.1).sum::<f64>(), 5.5);
    }
}
