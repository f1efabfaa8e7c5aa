//! End-to-end tests of `refminer --trace`: the span log must parse as
//! JSON lines, cover every pipeline stage, stay consistent with its
//! meta line, and — above all — never change the findings.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use refminer_json::Value;

fn refminer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_refminer"))
}

fn write_corpus_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "refminer_trace_test_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tree = refminer::corpus::generate_tree(&refminer::corpus::TreeConfig {
        scale: 0.05,
        include_tricky: false,
        fp_traps: true,
        ..Default::default()
    });
    tree.write_to(&dir).expect("write tree");
    dir
}

/// Runs an audit with `--trace`, returning (stdout, parsed log lines).
fn traced_run(dir: &Path, trace_path: &Path, cache_dir: Option<&Path>) -> (Vec<u8>, Vec<Value>) {
    let mut cmd = refminer();
    cmd.arg("--json").arg("--trace").arg(trace_path);
    if let Some(cache) = cache_dir {
        cmd.arg("--cache-dir").arg(cache);
    }
    let out = cmd.arg(dir).output().expect("run");
    let text = std::fs::read_to_string(trace_path).expect("trace file written");
    let lines: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).unwrap_or_else(|e| panic!("bad trace line {l:?}: {e:?}")))
        .collect();
    (out.stdout, lines)
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("missing {key}: {v}"))
}

#[test]
fn trace_log_parses_and_covers_all_pipeline_stages() {
    let dir = write_corpus_tree("stages");
    let trace_path = dir.join("trace.jsonl");
    let cache_dir = dir.join(".refminer-cache");
    let (_, lines) = traced_run(&dir, &trace_path, Some(&cache_dir));

    // Line 0 is the meta record and its counts match the body.
    let meta = &lines[0];
    assert_eq!(field(meta, "type").as_str(), Some("meta"));
    let span_lines: Vec<&Value> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .collect();
    let counter_lines: Vec<&Value> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("counter"))
        .collect();
    assert_eq!(
        span_lines.len() + counter_lines.len(),
        lines.len() - 1,
        "every body line is a span or a counter"
    );
    assert_eq!(field(meta, "spans").as_u64(), Some(span_lines.len() as u64));
    assert_eq!(
        field(meta, "counters").as_u64(),
        Some(counter_lines.len() as u64)
    );

    // Every pipeline stage shows up: the CLI-level spans, the audit's
    // sequential top-level stages, and the per-unit fan-out spans.
    let stages: BTreeSet<&str> = span_lines
        .iter()
        .filter_map(|v| field(v, "stage").as_str())
        .collect();
    for required in [
        "scan",
        "cache.load",
        "hash",
        "parse",
        "parse.unit",
        "export",
        "export.unit",
        "merge.kb",
        "merge.progdb",
        "check",
        "check.unit",
        "feasibility",
        "report",
        "cache.save",
    ] {
        assert!(
            stages.contains(required),
            "missing stage {required}: {stages:?}"
        );
    }

    // A cold cached run records misses for every unit, and the limit /
    // unit counters carry the taxonomy.
    let counters: BTreeMap<&str, u64> = counter_lines
        .iter()
        .filter_map(|v| Some((field(v, "name").as_str()?, field(v, "value").as_u64()?)))
        .collect();
    let units = counters.get("units.total").copied().unwrap_or(0);
    assert!(units > 0, "units.total counter present: {counters:?}");
    assert_eq!(counters.get("cache.parse.miss").copied(), Some(units));
    assert!(
        counters.keys().any(|k| k.starts_with("checker.")),
        "per-checker timers present: {counters:?}"
    );

    // Per-unit spans exist for every unit.
    let parse_units = span_lines
        .iter()
        .filter(|v| field(v, "stage").as_str() == Some("parse.unit"))
        .count() as u64;
    assert_eq!(parse_units, units, "one parse.unit span per unit");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn top_level_stage_times_fit_within_the_total() {
    let dir = write_corpus_tree("times");
    let trace_path = dir.join("trace.jsonl");
    let (_, lines) = traced_run(&dir, &trace_path, None);
    let spans: Vec<(&str, u64, u64)> = lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .map(|v| {
            (
                field(v, "stage").as_str().unwrap(),
                field(v, "start_us").as_u64().unwrap(),
                field(v, "dur_us").as_u64().unwrap(),
            )
        })
        .collect();
    // The top-level stages run sequentially, so their durations sum to
    // no more than the log's wall-clock extent.
    let top_level = [
        "scan",
        "hash",
        "parse",
        "export",
        "merge.kb",
        "merge.progdb",
        "check",
        "report",
    ];
    let stage_sum: u64 = spans
        .iter()
        .filter(|(stage, _, _)| top_level.contains(stage))
        .map(|(_, _, dur)| dur)
        .sum();
    let start = spans.iter().map(|(_, s, _)| *s).min().unwrap();
    let end = spans.iter().map(|(_, s, d)| s + d).max().unwrap();
    assert!(
        stage_sum <= end - start,
        "sequential stages ({stage_sum}µs) exceed the wall clock ({}µs)",
        end - start
    );
    // And they are not trivially empty: the audit spends measurable
    // time in at least the parse and check stages.
    for must_run in ["parse", "check"] {
        assert!(
            spans.iter().any(|(s, _, d)| s == &must_run && *d > 0),
            "stage {must_run} recorded no time"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stage_spans_enclose_their_unit_spans() {
    // The audit is a barrier pipeline — parse, export, merge.kb,
    // merge.progdb, check — so every per-unit span of a stage lies
    // inside that stage's span, each stage ends before the next one
    // starts, and the program-database merge between export and check
    // takes real time. Two workers make the fan-out genuinely parallel.
    let dir = write_corpus_tree("enclose");
    let trace_path = dir.join("trace.jsonl");
    let out = refminer()
        .args(["--json", "--jobs", "2", "--trace"])
        .arg(&trace_path)
        .arg(&dir)
        .output()
        .expect("run");
    assert!(out.status.code().is_some_and(|c| c <= 1), "{out:?}");
    let text = std::fs::read_to_string(&trace_path).expect("trace file written");
    let span_lines: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("trace line"))
        .filter(|v| field(v, "type").as_str() == Some("span"))
        .collect();
    let spans: Vec<(String, u64, u64)> = span_lines
        .iter()
        .map(|v| {
            (
                field(v, "stage").as_str().unwrap().to_string(),
                field(v, "start_us").as_u64().unwrap(),
                field(v, "dur_us").as_u64().unwrap(),
            )
        })
        .collect();
    let stage = |name: &str| -> (u64, u64) {
        let mut it = spans.iter().filter(|(s, _, _)| s == name);
        let &(_, start, dur) = it.next().unwrap_or_else(|| panic!("no {name} span"));
        assert!(it.next().is_none(), "one {name} span per audit");
        (start, start + dur)
    };
    for (outer, inner) in [("export", "export.unit"), ("check", "check.unit")] {
        let (lo, hi) = stage(outer);
        let mut seen = 0;
        for (_, start, dur) in spans.iter().filter(|(s, _, _)| s == inner) {
            // Start and duration are each truncated to whole
            // microseconds, so an end may read up to 1µs late.
            assert!(
                *start >= lo && start + dur <= hi + 1,
                "{inner} [{start}, {}] outside {outer} [{lo}, {hi}]",
                start + dur
            );
            seen += 1;
        }
        assert!(seen > 0, "no {inner} spans");
    }
    // Exports are built right after the parse, before the KB merge.
    let (export_lo, export_hi) = stage("export");
    assert!(
        stage("parse").1 <= export_lo,
        "export starts before parse ends"
    );
    assert!(
        export_hi <= stage("merge.kb").0,
        "merge.kb starts before export ends"
    );
    let (merge_lo, merge_hi) = stage("merge.progdb");
    assert!(merge_hi > merge_lo, "merge.progdb has zero width");
    assert!(export_hi <= merge_lo && merge_hi <= stage("check").0);
    // Only the check stage runs the feasibility fixpoint (exports are
    // read off CFGs and node facts), so every `feasibility` span nests
    // in a `check.unit` span of its own unit.
    let unit_spans = |stage: &str| -> Vec<(String, u64, u64)> {
        span_lines
            .iter()
            .filter(|v| field(v, "stage").as_str() == Some(stage))
            .map(|v| {
                let start = field(v, "start_us").as_u64().unwrap();
                (
                    field(v, "unit").as_str().unwrap().to_string(),
                    start,
                    start + field(v, "dur_us").as_u64().unwrap(),
                )
            })
            .collect()
    };
    let checks = unit_spans("check.unit");
    let feas = unit_spans("feasibility");
    assert!(!feas.is_empty(), "no feasibility spans");
    for (unit, start, end) in &feas {
        assert!(
            checks
                .iter()
                .any(|(u, lo, hi)| u == unit && lo <= start && *end <= hi + 1),
            "feasibility [{start}, {end}] of {unit} lies in no check.unit span of that unit"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tracing_never_changes_findings() {
    let dir = write_corpus_tree("bytes");
    let trace_path = dir.join("trace.jsonl");

    let plain = refminer().arg("--json").arg(&dir).output().expect("run");
    let (traced, _) = traced_run(&dir, &trace_path, None);
    assert_eq!(plain.stdout, traced, "--trace changed the findings bytes");

    // Same under parallelism and a warm cache: the trace observes the
    // run, it never steers it.
    let cache_dir = dir.join(".refminer-cache");
    let (cold, _) = traced_run(&dir, &trace_path, Some(&cache_dir));
    let (warm, warm_lines) = traced_run(&dir, &trace_path, Some(&cache_dir));
    assert_eq!(plain.stdout, cold, "cold cached trace changed the bytes");
    assert_eq!(plain.stdout, warm, "warm cached trace changed the bytes");

    // The warm run's counters flip from misses to hits, and no unit is
    // parsed, exported or checked — proof the trace reflects the work
    // actually performed.
    for unit_stage in ["parse.unit", "export.unit", "check.unit"] {
        let ran = warm_lines
            .iter()
            .any(|v| v.get("stage").and_then(|s| s.as_str()) == Some(unit_stage));
        assert!(!ran, "warm run recorded a {unit_stage} span");
    }
    let hits = warm_lines[1..]
        .iter()
        .filter(|v| field(v, "type").as_str() == Some("counter"))
        .find(|v| field(v, "name").as_str() == Some("cache.check.hit"))
        .and_then(|v| field(v, "value").as_u64())
        .unwrap_or(0);
    assert!(hits > 0, "warm run records cache hits");

    std::fs::remove_dir_all(&dir).ok();
}
