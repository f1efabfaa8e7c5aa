//! `cold-tree` and `hot-functions`: a closed loop with one caller that
//! runs repeated cold audits, each through a fresh `AuditCache` with the
//! default `AuditConfig` at one job per hardware thread.
//!
//! `cold-tree` audits a seeded ~30-replica `generate_big_tree` (about
//! 3.6k files, 280 kLoC): parsing, graph building and the engines do
//! almost all the work. `hot-functions` audits a small seeded
//! `generate_tree` into which a handful of ceval-shaped dispatch units
//! are mixed (see [`crate::dispatch`]): the time concentrates in a few
//! large functions, where the `cpg` fixpoints dominate.

use std::path::Path;
use std::time::{Duration, Instant};

use refminer::corpus::{generate_big_tree, generate_tree, BigTreeConfig, Manifest, TreeConfig};
use refminer::{
    audit_with_cache, AuditCache, AuditConfig, AuditReport, Finding, Project, CACHE_FILE,
};

use crate::dispatch::{self, DispatchSet, DispatchShape};
use crate::layers::{self, Extra};
use crate::mirror::Mirror;
use crate::score::{Claim, Score, Truth};
use crate::spans::Tracer;
use crate::{nproc, rss, stats, Args, Outcome, WorkDir};

/// Times set-up runs; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// A run measures at least this many audits, even past `--seconds`.
const MIN_OPS: usize = 3;
/// Hard cap on the measurement window, so a run always ends.
pub const MAX_MEASURE: Duration = Duration::from_secs(120);
/// Recall and precision below these mean the outputs are wrong, not
/// merely worse.
pub const RECALL_FLOOR: f64 = 0.9;
/// See [`RECALL_FLOOR`].
pub const PRECISION_FLOOR: f64 = 0.9;

/// `generate_big_tree` replicas for `cold-tree`.
const COLD_REPLICAS: usize = 30;
/// `generate_tree` scale for the small tree of `hot-functions`.
const HOT_TREE_SCALE: f64 = 0.25;
/// Dispatch units mixed into `hot-functions`.
const HOT_UNITS: usize = 8;
/// Size of each `hot-functions` dispatch function. Chosen so the four
/// units take most of an audit's time and the graph fixpoints dominate
/// the layer table, while one cold audit stays near a second on two
/// cores; see `perfbench/README.md`.
pub const HOT_SHAPE: DispatchShape = DispatchShape {
    arms: 30,
    locals: 12,
    leak_one_in: 6,
};

/// Which of the two cold workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The big generated tree.
    ColdTree,
    /// The small tree plus dispatch units.
    HotFunctions,
}

impl Kind {
    /// The kind named by a workload name.
    pub fn of(workload: &str) -> Kind {
        match workload {
            "cold-tree" => Kind::ColdTree,
            "hot-functions" => Kind::HotFunctions,
            _ => unreachable!("workload names are validated at parse time"),
        }
    }
}

/// Generated sources and their ground truth.
pub struct Input {
    /// `(path, text)` per file.
    pub files: Vec<(String, String)>,
    /// Corpus manifest.
    pub manifest: Manifest,
    /// Planted dispatch units (empty for `cold-tree`).
    pub dispatch: DispatchSet,
}

fn generate(kind: Kind, seed: u64) -> Input {
    match kind {
        Kind::ColdTree => {
            let tree = generate_big_tree(&BigTreeConfig {
                seed,
                replicas: COLD_REPLICAS,
                scale: 1.0,
            });
            Input {
                files: tree
                    .files
                    .into_iter()
                    .map(|f| (f.path, f.content))
                    .collect(),
                manifest: tree.manifest,
                dispatch: DispatchSet::default(),
            }
        }
        Kind::HotFunctions => {
            let tree = generate_tree(&TreeConfig {
                seed,
                scale: HOT_TREE_SCALE,
                ..TreeConfig::default()
            });
            let dispatch = dispatch::generate(seed, HOT_UNITS, HOT_SHAPE);
            let mut files: Vec<(String, String)> = tree
                .files
                .into_iter()
                .map(|f| (f.path, f.content))
                .collect();
            // Spread the hot units evenly through the unit order, as hot
            // functions are spread through a real tree, rather than
            // queueing them all behind the small units.
            let stride = files.len() / HOT_UNITS + 1;
            for (i, unit) in dispatch.files.iter().enumerate() {
                files.insert((i * stride).min(files.len()), unit.clone());
            }
            Input {
                files,
                manifest: tree.manifest,
                dispatch,
            }
        }
    }
}

/// Writes `files` under `dir`.
pub fn write_tree(dir: &Path, files: &[(String, String)]) -> std::io::Result<()> {
    for (path, text) in files {
        let p = dir.join(path);
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(p, text)?;
    }
    Ok(())
}

/// Order-sensitive digest of a finding list's rendered lines.
pub fn digest(findings: &[Finding]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in findings {
        for b in refminer::serve::render_finding_line(f)
            .bytes()
            .chain([b'\n'])
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Records one cold audit as `files` unit operations, the non-`ok`
/// ones failed.
fn count_units(out: &mut Outcome, report: &AuditReport) {
    out.attempted += report.files as u64;
    out.failed += (report.files - report.diagnostics.ok) as u64;
}

/// Scores `claims`, recording a problem when recall or precision falls
/// below its floor.
pub fn check_score(out: &mut Outcome, truth: &Truth, claims: &[Claim]) -> Score {
    let s = truth.score(claims);
    if s.recall() < RECALL_FLOOR || s.precision() < PRECISION_FLOOR {
        out.problem(format!(
            "recall {:.4} / precision {:.4} below the {RECALL_FLOOR} floor",
            s.recall(),
            s.precision()
        ));
    }
    s
}

/// The `ok_rate` metric: operations that did not fail, over attempted.
pub fn ok_rate(out: &Outcome) -> f64 {
    1.0 - out.failed as f64 / out.attempted.max(1) as f64
}

pub fn run(args: &Args, work: &WorkDir, kind: Kind) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let config = AuditConfig {
        jobs: nproc(),
        ..AuditConfig::default()
    };

    // Set-up: generate, build the project, and one warm-up audit;
    // repeated, and the last repetition's inputs are the ones measured.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let start = Instant::now();
        let input = generate(kind, args.seed);
        let project = Project::from_sources(input.files.clone());
        let warm = audit_with_cache(&project, &config, &mut AuditCache::new());
        setup_secs.push(start.elapsed().as_secs_f64());
        state = Some((input, project, warm));
    }
    let (input, project, warm) = state.expect("at least one set-up");
    let reference = digest(&warm.findings);
    let truth = Truth {
        manifest: &input.manifest,
        dispatch: &input.dispatch,
    };
    let claims: Vec<Claim> = warm.findings.iter().map(Claim::of).collect();

    if args.trace {
        traced(args, &mut out, &input, work, reference)?;
        check_score(&mut out, &truth, &claims);
        return Ok(out);
    }

    out.metric("setup_s", stats::median(&setup_secs), "s", setup_secs.len());
    let start = Instant::now();
    let mut secs: Vec<f64> = Vec::new();
    let mut lines = 0usize;
    while (start.elapsed() < args.seconds || secs.len() < MIN_OPS) && start.elapsed() < MAX_MEASURE
    {
        let mut cache = AuditCache::new();
        let t = Instant::now();
        let report = audit_with_cache(std::hint::black_box(&project), &config, &mut cache);
        secs.push(t.elapsed().as_secs_f64());
        drop(cache);
        lines += report.lines;
        count_units(&mut out, &report);
        if digest(&report.findings) != reference {
            out.problem(format!(
                "audit {} findings differ from the warm-up audit",
                secs.len()
            ));
        }
    }
    let total: f64 = secs.iter().sum();
    out.metric(
        "throughput_kloc_s",
        lines as f64 / 1000.0 / total,
        "kLoC/s",
        secs.len(),
    );
    out.metric("op_ms_p50", stats::median(&secs) * 1e3, "ms", secs.len());
    out.metric("peak_rss_mb", rss::peak_rss_mb().unwrap_or(0.0), "MiB", 1);
    let score = check_score(&mut out, &truth, &claims);
    out.metric("recall", score.recall(), "ratio", 1);
    out.metric("precision", score.precision(), "ratio", 1);
    out.metric("ok_rate", ok_rate(&out), "ratio", out.attempted as usize);
    if let Some(s) = stats::summarize(&secs) {
        eprintln!(
            "audit wall time: p50 {:.4} s, {} samples, {} kLoC per audit{}",
            s.p50,
            s.n,
            warm.lines as f64 / 1000.0,
            s.tail
                .map_or(String::new(), |(p, v)| format!(", p{p} {v:.4} s"))
        );
    }
    Ok(out)
}

/// The traced run: per operation, the layer pipeline untraced (for the
/// overhead), then — inside one `op` span — a scan of the tree written
/// to disk, the real audit at one job, a cache save and load, and the
/// layer pipeline traced.
fn traced(
    args: &Args,
    out: &mut Outcome,
    input: &Input,
    work: &WorkDir,
    reference: u64,
) -> Result<(), String> {
    let dir = work.path().join("tree");
    write_tree(&dir, &input.files).map_err(|e| format!("writing the tree: {e}"))?;
    let config = AuditConfig {
        jobs: 1,
        ..AuditConfig::default()
    };
    let tracer = Tracer::new(true);
    let plain = Tracer::new(false);
    let cache_dir = work.path().join("cache");
    let mut extra = Extra::default();
    let project = Project::from_sources(input.files.clone());
    // One untimed pass first, so neither side of the overhead
    // comparison pays for the process's first page faults.
    Mirror::new(&config).run(project.units(), &plain);
    let start = Instant::now();
    while extra.ops == 0 || start.elapsed() < args.seconds {
        let t = Instant::now();
        let untraced = Mirror::new(&config).run(project.units(), &plain);
        extra.plain_secs += t.elapsed().as_secs_f64();

        tracer.set_op(extra.ops as u32);
        let op = tracer.span("op");
        let scanned = {
            let _s = tracer.span("project.scan");
            Project::scan(&dir)
        };
        let scanned = scanned.map_err(|e| format!("scanning the tree: {e}"))?;
        let _ = std::fs::remove_file(cache_dir.join(CACHE_FILE));
        let mut cache = AuditCache::with_dir(&cache_dir);
        let report = {
            let _s = tracer.span("core.audit.call");
            audit_with_cache(&scanned, &config, &mut cache)
        };
        count_cache(&tracer, &report);
        count_units(out, &report);
        {
            let _s = tracer.span("core.cache.save");
            if let Err(e) = cache.save() {
                out.problem(format!("cache save failed: {e}"));
            }
        }
        drop(cache);
        {
            let _s = tracer.span("core.cache.load");
            let loaded = AuditCache::with_dir(&cache_dir);
            if !matches!(loaded.load_outcome(), refminer::CacheLoadOutcome::Loaded) {
                out.problem("saved cache did not load back");
            }
        }
        if let Ok(m) = std::fs::metadata(cache_dir.join(CACHE_FILE)) {
            tracer.max("core.cache.bytes", m.len() as f64);
        }
        let t = Instant::now();
        let traced = Mirror::new(&config).run(scanned.units(), &tracer);
        extra.traced_secs += t.elapsed().as_secs_f64();
        drop(op);

        for (what, findings) in [
            ("audit at one job", &report.findings),
            ("untraced layer pipeline", &untraced),
            ("traced layer pipeline", &traced),
        ] {
            if digest(findings) != reference {
                out.problem(format!(
                    "op {}: {what} findings differ from the untraced audit",
                    extra.ops
                ));
            }
        }
        extra.ops += 1;
    }
    layers::report(out, args, &tracer, &extra);
    Ok(())
}

/// Cache lookups and hits of one audit, as tracer counters.
pub fn count_cache(t: &Tracer, report: &AuditReport) {
    let c = &report.cache;
    t.add("cache.parse_hits", c.parse_hits as f64);
    t.add(
        "cache.parse_lookups",
        (c.parse_hits + c.parse_misses) as f64,
    );
    t.add("cache.check_hits", c.check_hits as f64);
    t.add(
        "cache.check_lookups",
        (c.check_hits + c.check_misses) as f64,
    );
}
