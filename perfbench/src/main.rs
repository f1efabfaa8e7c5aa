//! refminer's benchmark.
//!
//! ```text
//! perfbench --workload <cold-tree|hot-functions|edit-stream> --seed N --seconds S --trace 0|1
//! perfbench --workload all --seed N --seconds S
//! ```
//!
//! A run generates its inputs from the seed, sets up, measures for the
//! given seconds, checks every output against the generator's ground
//! truth, prints a human-readable table on stderr and, as the last line
//! of stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones untraced, per-layer ones with `--trace 1`).
//! It exits 1 when the outputs were wrong and 2 on a usage error.
//! `--workload all` runs every workload untraced and traced, each in
//! its own process, and exits 1 if any of them was wrong.

mod cold;
mod dispatch;
mod edit;
mod layers;
mod mirror;
mod rss;
mod score;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["cold-tree", "hot-functions", "edit-stream"];

/// Directory, relative to the working directory, for generated trees
/// and caches; removed when the run ends.
const WORK_ROOT: &str = ".bench_work";
/// Directory, relative to the working directory, for span files.
const OUT_ROOT: &str = ".bench_out";

/// The benchmark's manifest, compiled in so that every run can check
/// it reports exactly the metrics the manifest lists.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of each metric the manifest lists in `section`
/// (`end_to_end` or `per_layer`).
fn manifest_metrics(section: &str) -> Vec<(String, String)> {
    let manifest = refminer_json::Value::parse(MANIFEST).expect("BENCHMARK.json is valid JSON");
    let field = |m: &refminer_json::Value, k: &str| {
        m.get(k)
            .and_then(refminer_json::Value::as_str)
            .expect("every manifest metric has a name and a unit")
            .to_string()
    };
    manifest
        .get(section)
        .and_then(refminer_json::Value::as_array)
        .expect("the manifest lists both metric sections")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// Records a problem unless `out` reports exactly the manifest's metrics
/// for the run's mode, in their units, and, untraced, each one finite
/// and above zero.
fn check_against_manifest(out: &mut Outcome, trace: bool) {
    let mut want = manifest_metrics(if trace { "per_layer" } else { "end_to_end" });
    let mut got: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    want.sort();
    got.sort();
    if got != want {
        let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
        let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
        out.problem(format!(
            "reported metrics differ from BENCHMARK.json: missing {missing:?}, not listed {extra:?}"
        ));
    }
    if !trace {
        let bad: Vec<&str> = out
            .metrics
            .iter()
            .filter(|m| !(m.value.is_finite() && m.value > 0.0))
            .map(|m| m.name)
            .collect();
        if !bad.is_empty() {
            out.problem(format!("end-to-end metrics not above zero: {bad:?}"));
        }
    }
}

/// Validated command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`], or `all`).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement window.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, Some(false));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.to_string());
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("seconds must be 1..=600, got {s}"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.expect("defaulted"),
    })
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Problems found while checking outputs; empty means correct.
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a correctness problem.
    pub fn problem(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-run scratch directory under [`WORK_ROOT`], removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<WorkDir> {
        let dir = Path::new(WORK_ROOT).join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the traced run of `args` writes its span file.
pub fn span_file(args: &Args) -> PathBuf {
    Path::new(OUT_ROOT).join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed))
}

fn print_table(args: &Args, out: &Outcome) {
    eprintln!(
        "== {} seed {} ({}, {} s, nproc {}) ==",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds.as_secs(),
        nproc()
    );
    eprintln!(
        "{:<28} {:>14} {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &out.metrics {
        eprintln!(
            "{:<28} {:>14.6} {:<9} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    eprintln!(
        "ops attempted {}, failed {}; outputs {}",
        out.attempted,
        out.failed,
        if out.problems.is_empty() {
            "correct"
        } else {
            "WRONG"
        }
    );
    for p in &out.problems {
        eprintln!("  problem: {p}");
    }
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(args).map_err(|e| format!("work dir: {e}"))?;
    match args.workload.as_str() {
        "edit-stream" => edit::run(args, &work),
        w => cold::run(args, &work, cold::Kind::of(w)),
    }
}

/// Runs every workload untraced and traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut summary: Vec<String> = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        let mut row = format!("{w}:");
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.as_secs().to_string()])
                .args(["--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let result = out.as_ref().ok().and_then(|o| {
                let stdout = String::from_utf8_lossy(&o.stdout);
                refminer_json::Value::parse(stdout.lines().last()?).ok()
            });
            let correct = result
                .as_ref()
                .and_then(|r| r.get("correct")?.as_bool())
                .unwrap_or(false);
            ok &= correct && out.as_ref().is_ok_and(|o| o.status.success());
            row.push_str(if correct { "" } else { " WRONG" });
            let Some(metrics) = result.as_ref().and_then(|r| r.get("metrics")?.as_object()) else {
                continue;
            };
            for (name, m) in metrics {
                let traced_only =
                    name != "core.audit.unaccounted_s" && name != "trace.overhead_share";
                if trace == "1" && traced_only {
                    continue;
                }
                let value = m.get("value").and_then(refminer_json::Value::as_f64);
                let unit = m.get("unit").and_then(refminer_json::Value::as_str);
                if let (Some(v), Some(u)) = (value, unit) {
                    row.push_str(&format!(" {name}={v:.4} {u};"));
                }
            }
        }
        summary.push(row);
    }
    eprintln!("== summary, seed {} ==", args.seed);
    for s in summary {
        eprintln!("{s}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed N --seconds S [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(mut out) => {
            check_against_manifest(&mut out, args.trace);
            print_table(&args, &out);
            println!("{}", out.json());
            if out.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload cold-tree --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "cold-tree".into(),
                seed: 7,
                seconds: Duration::from_secs(10),
                trace: true
            }
        );
        assert!(
            !parse_args(&argv("--workload all --seed 1 --seconds 1"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload cold-tree --seconds 1",
            "--workload cold-tree --seed x --seconds 1",
            "--workload cold-tree --seed 1 --seconds 0",
            "--workload cold-tree --seed 1 --seconds 1 --trace 2",
            "--workload cold-tree --seed 1 --seconds 1 --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn manifest_lists_the_metrics_the_workloads_share() {
        let names = |section| -> Vec<String> {
            manifest_metrics(section).into_iter().map(|m| m.0).collect()
        };
        assert_eq!(
            names("end_to_end"),
            [
                "setup_s",
                "throughput_kloc_s",
                "op_ms_p50",
                "peak_rss_mb",
                "recall",
                "precision",
                "ok_rate"
            ]
        );
        let per_layer = names("per_layer");
        assert!(per_layer.contains(&"core.audit.unaccounted_s".to_string()));
        assert!(per_layer.contains(&"trace.overhead_share".to_string()));
    }

    #[test]
    fn a_run_missing_a_manifest_metric_is_wrong() {
        let mut complete = Outcome::default();
        for (name, unit) in manifest_metrics("end_to_end") {
            let (name, unit) = (name.leak() as &str, unit.leak() as &str);
            complete.metric(name, 1.5, unit, 1);
        }
        check_against_manifest(&mut complete, false);
        assert!(complete.problems.is_empty(), "{:?}", complete.problems);

        let mut short = Outcome::default();
        short.metric("setup_s", 1.5, "s", 1);
        check_against_manifest(&mut short, false);
        assert!(short.problems[0].contains("op_ms_p50"), "{:?}", short.problems);

        let mut zero = Outcome::default();
        for (name, unit) in manifest_metrics("end_to_end") {
            let (name, unit) = (name.leak() as &str, unit.leak() as &str);
            zero.metric(name, if name == "ok_rate" { 0.0 } else { 1.5 }, unit, 1);
        }
        check_against_manifest(&mut zero, false);
        assert!(zero.problems[0].contains("ok_rate"), "{:?}", zero.problems);
        // Per-layer counters may be zero: a cold workload sheds nothing.
        let mut traced = Outcome::default();
        check_against_manifest(&mut traced, true);
        assert!(traced.problems[0].contains("missing"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s", 3);
        let v = refminer_json::Value::parse(&o.json()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        o.problem("wrong");
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
