//! `edit-stream`: an in-process `serve::Engine` over a seeded tree on
//! disk, with `cache_dir` set so the cache is saved after every audit.
//!
//! Client A is a closed loop, like a CI bot: it writes a seeded
//! `next_revision` edit (1-3 files, finding-neutral by construction),
//! sends `auditdiff` and waits for the reply. Client B is an open loop
//! of `query` requests at a fixed [`QUERY_HZ`], each timed from the
//! moment it was due, so a stall also delays the queries behind it.
//! The daemon audits with one job per hardware thread left over by the
//! two clients (at least one).

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use refminer::corpus::{generate_tree, next_revision, SyntheticTree, TreeConfig};
use refminer::serve::protocol::{Method, QueryFilter, Request, Response};
use refminer::serve::{Engine, EngineHandle, ServeConfig};
use refminer::{
    audit_with_cache, diff_findings, sweep_left_behind, AuditCache, AuditConfig, Finding, Project,
    CACHE_FILE,
};
use refminer_json::Value;

use crate::cold::{check_score, count_cache, digest, ok_rate, write_tree, MAX_MEASURE, SETUP_REPS};
use crate::dispatch::DispatchSet;
use crate::layers::{self, Extra, ServeCounters};
use crate::mirror::Mirror;
use crate::score::{Claim, Truth};
use crate::spans::Tracer;
use crate::{nproc, rss, stats, Args, Outcome, WorkDir};

/// Client B's request rate.
pub const QUERY_HZ: f64 = 20.0;
/// Edits an untraced run times, per second of `--seconds`. The daemon's
/// cache only grows, so each edit costs a little more than the last;
/// timing a fixed number of edits keeps a faster program from being
/// measured on a bigger cache than a slower one.
const EDITS_PER_SECOND: u64 = 20;
/// The fewest edits a run times, so the edit latency's p90 has ten
/// samples beyond it.
const MIN_EDITS: u64 = 100;
/// Queries an untraced run collects at least, so the query latency's
/// p90 has ten samples beyond it; edits continue, untimed, until it has
/// them.
const MIN_QUERIES: usize = 100;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn request(h: &EngineHandle, method: Method) -> Response {
    h.request(&Request {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        method,
        deadline_ms: None,
    })
}

fn query() -> Method {
    Method::Query(QueryFilter::default())
}

/// The result object of a successful response.
fn ok_result(resp: &Response) -> Option<&Value> {
    match resp {
        Response::Ok { result, .. } => Some(result),
        Response::Err { .. } => None,
    }
}

/// The finding lines of a `query` response.
fn query_lines(resp: &Response) -> Option<Vec<String>> {
    ok_result(resp)?
        .get("lines")?
        .as_array()?
        .iter()
        .map(|l| l.as_str().map(str::to_string))
        .collect()
}

/// One edit: the text appended to each edited file.
type Edit = Vec<(String, String)>;

/// `count` edits, each of 1-3 files drawn from `seed` and the edit's
/// index, applied one after another to `tree`; returns the final tree.
/// The script is made before the clients start, so client A does no
/// more than append to files while it is timed.
fn edit_script(mut tree: SyntheticTree, seed: u64, count: u64) -> (SyntheticTree, Vec<Edit>) {
    let mut edits = Vec::new();
    for k in 0..count {
        let s = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let (next, edited) = next_revision(&tree, s, 1 + (s >> 33) as usize % 3);
        let edit = edited
            .into_iter()
            .map(|path| {
                let i = tree
                    .files
                    .iter()
                    .position(|f| f.path == path)
                    .expect("next_revision edits existing files");
                let old = tree.files[i].content.len();
                (path, next.files[i].content[old..].to_string())
            })
            .collect();
        edits.push(edit);
        tree = next;
    }
    (tree, edits)
}

fn apply(root: &Path, edit: &Edit) -> std::io::Result<()> {
    for (path, text) in edit {
        std::fs::OpenOptions::new()
            .append(true)
            .open(root.join(path))?
            .write_all(text.as_bytes())?;
    }
    Ok(())
}

/// Whether an `auditdiff` reply succeeded with an empty findings delta.
fn diff_is_neutral(resp: &Response) -> bool {
    ok_result(resp).is_some_and(|r| {
        r.get("introduced").and_then(Value::as_u64) == Some(0)
            && r.get("fixed").and_then(Value::as_u64) == Some(0)
    })
}

/// A started daemon over a seeded tree.
struct Daemon {
    engine: Engine,
    tree: SyntheticTree,
    root: PathBuf,
    dir: PathBuf,
    base_lines: Vec<String>,
}

fn start_daemon(args: &Args, dir: PathBuf, jobs: usize) -> Result<Daemon, String> {
    let tree = generate_tree(&TreeConfig {
        seed: args.seed,
        ..TreeConfig::default()
    });
    let root = dir.join("tree");
    let files: Vec<(String, String)> = tree
        .files
        .iter()
        .map(|f| (f.path.clone(), f.content.clone()))
        .collect();
    write_tree(&root, &files).map_err(|e| format!("writing the tree: {e}"))?;
    let mut cfg = ServeConfig::new(&root);
    cfg.audit = AuditConfig {
        jobs,
        ..AuditConfig::default()
    };
    cfg.cache_dir = Some(dir.join("cache"));
    let engine = Engine::start(cfg);
    let h = engine.handle();
    if !h.wait_for_revision(1, Duration::from_secs(60)) {
        return Err("the daemon's warm-up audit did not finish".into());
    }
    let base_lines = query_lines(&request(&h, query())).ok_or("the warm-up query failed")?;
    Ok(Daemon {
        engine,
        tree,
        root,
        dir,
        base_lines,
    })
}

/// One warm-up iteration: an edit from a stream the measurement never
/// uses, its `auditdiff`, and a query.
fn warm_up(d: &mut Daemon, seed: u64) -> Result<(), String> {
    let (next, script) = edit_script(d.tree.clone(), !seed, 1);
    apply(&d.root, &script[0]).map_err(|e| format!("writing an edit: {e}"))?;
    let h = d.engine.handle();
    if !diff_is_neutral(&request(&h, Method::AuditDiff)) {
        return Err("the warm-up auditdiff failed or was not neutral".into());
    }
    if !request(&h, query()).is_ok() {
        return Err("the warm-up query failed".into());
    }
    d.tree = next;
    Ok(())
}

/// Client B: queries due every `1 / QUERY_HZ` from `start` until
/// `stop`. Returns latency from due time and lateness of each send, in
/// ms, and the failed count.
fn query_loop(
    h: &EngineHandle,
    stop: &AtomicBool,
    sent_count: &AtomicUsize,
    start: Instant,
) -> (Vec<f64>, Vec<f64>, u64) {
    let period = Duration::from_secs_f64(1.0 / QUERY_HZ);
    let (mut latency, mut late, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut due = start + period;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let ok = request(h, query()).is_ok();
        let done = Instant::now();
        latency.push((done - due).as_secs_f64() * 1e3);
        late.push((sent - due).as_secs_f64() * 1e3);
        failed += u64::from(!ok);
        sent_count.fetch_add(1, Ordering::SeqCst);
        due += period;
    }
    (latency, late, failed)
}

fn counter(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = nproc().saturating_sub(2).max(1);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for r in 0..reps {
        if let Some(mut d) = daemon.take() {
            d.engine.shutdown();
            let _ = std::fs::remove_dir_all(&d.dir);
        }
        let start = Instant::now();
        let mut d = start_daemon(args, work.path().join(format!("rep{r}")), jobs)?;
        warm_up(&mut d, args.seed)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let mut d = daemon.expect("at least one set-up");
    let h = d.engine.handle();
    let mut tracing = if args.trace {
        Some(TraceState::new(&d, work)?)
    } else {
        None
    };

    let stop = AtomicBool::new(false);
    let queries = AtomicUsize::new(0);
    let window = (EDITS_PER_SECOND * args.seconds.as_secs()).max(MIN_EDITS);
    // Enough for the timed window, the edits that wait for client B's
    // queries, and a traced run's slower pace.
    let (_, script) = edit_script(d.tree.clone(), args.seed, 2 * window);
    let mut edit_ms: Vec<f64> = Vec::new();
    // Lines in the tree each timed `auditdiff` gives a verdict on.
    let mut tree_lines: usize = d.tree.files.iter().map(|f| f.content.lines().count()).sum();
    let mut verdict_lines = 0usize;
    let mut peak_rss = None;
    let start = Instant::now();
    let more = |k: usize| {
        let wanted = if args.trace {
            start.elapsed() < args.seconds
        } else {
            (k as u64) < window || queries.load(Ordering::SeqCst) < MIN_QUERIES
        };
        wanted && k < script.len() && start.elapsed() < MAX_MEASURE
    };
    let (query_ms, late_ms, query_failed) = std::thread::scope(|s| {
        let client_b = s.spawn(|| query_loop(&h, &stop, &queries, start));
        let mut k = 0usize;
        while more(k) {
            let t = Instant::now();
            let resp = match apply(&d.root, &script[k]) {
                Ok(()) => Some(request(&h, Method::AuditDiff)),
                Err(e) => {
                    out.problem(format!("writing edit {k}: {e}"));
                    None
                }
            };
            tree_lines += script[k].iter().map(|(_, text)| text.lines().count()).sum::<usize>();
            if (k as u64) < window {
                edit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                verdict_lines += tree_lines;
            }
            if k as u64 + 1 == window {
                peak_rss = rss::peak_rss_mb();
            }
            out.attempted += 1;
            if !resp.as_ref().is_some_and(diff_is_neutral) {
                out.failed += 1;
                out.problem(format!(
                    "edit {k}: auditdiff failed or reported a finding change"
                ));
            }
            if let Some(ts) = tracing.as_mut() {
                ts.edit(&mut out, &d, &script[k]);
            }
            k += 1;
        }
        stop.store(true, Ordering::SeqCst);
        client_b.join().expect("the query client does not panic")
    });
    out.attempted += query_ms.len() as u64;
    out.failed += query_failed;
    if query_failed > 0 {
        out.problem(format!("{query_failed} queries failed"));
    }

    let status = request(&h, Method::Status);
    let final_lines = query_lines(&request(&h, query()));
    d.engine.shutdown();
    match &final_lines {
        Some(lines) if *lines == d.base_lines => {}
        _ => out.problem("the final snapshot differs from the base tree's findings"),
    }
    let claims: Vec<Claim> = d
        .base_lines
        .iter()
        .filter_map(|l| Claim::parse(l))
        .collect();
    if claims.len() != d.base_lines.len() {
        out.problem("a finding line did not parse");
    }
    let none = DispatchSet::default();
    let truth = Truth {
        manifest: &d.tree.manifest,
        dispatch: &none,
    };

    if let Some(ts) = tracing {
        let serve = ok_result(&status).map_or(ServeCounters::default(), |v| ServeCounters {
            sheds: counter(v, "sheds"),
            deadline_misses: counter(v, "deadline_misses"),
            queue_peak: counter(v, "queue_peak"),
        });
        let extra = Extra {
            serve,
            late_ms,
            query_ms,
            ..ts.extra
        };
        layers::report(&mut out, args, &ts.tracer, &extra);
        check_score(&mut out, &truth, &claims);
        return Ok(out);
    }

    let edits = stats::summarize(&edit_ms).ok_or("no edits were timed")?;
    let queries = stats::summarize(&query_ms).ok_or("no queries were sent")?;
    out.metric("setup_s", stats::median(&setup_secs), "s", setup_secs.len());
    out.metric(
        "throughput_kloc_s",
        verdict_lines as f64 / edit_ms.iter().sum::<f64>(),
        "kLoC/s",
        edits.n,
    );
    out.metric("op_ms_p50", edits.p50, "ms", edits.n);
    // Read at the end instead when the time cap cut the window short.
    let peak_rss = peak_rss.or_else(rss::peak_rss_mb).unwrap_or(0.0);
    out.metric("peak_rss_mb", peak_rss, "MiB", 1);
    let score = check_score(&mut out, &truth, &claims);
    out.metric("recall", score.recall(), "ratio", 1);
    out.metric("precision", score.precision(), "ratio", 1);
    out.metric("ok_rate", ok_rate(&out), "ratio", out.attempted as usize);
    // Printed on stderr only; see perfbench/README.md for why the edit
    // tail and the query latencies are not gated.
    for (what, s) in [("edit", &edits), ("query", &queries)] {
        if !stats::supports(90.0, s.n) {
            out.problem(format!("{} {what} samples cannot support a p90", s.n));
        }
        eprintln!(
            "{what} latency: p50 {:.4} ms, p90 {:.4} ms{}, {} samples",
            s.p50,
            s.p90,
            s.tail
                .map_or(String::new(), |(p, v)| format!(", highest supported tail p{p} = {v:.4} ms")),
            s.n
        );
    }
    let mut late = late_ms;
    late.sort_by(f64::total_cmp);
    if !late.is_empty() {
        eprintln!(
            "query generator lateness: p90 {:.4} ms over {} sends",
            stats::percentile(&late, 90.0),
            late.len()
        );
    }
    Ok(out)
}

/// The traced side of `edit-stream`: after each `auditdiff` reply,
/// client A repeats the edit's work through public functions — scan,
/// the real audit through a persistent cache at one job, the findings
/// delta, the left-behind sweep, cache save and load — and the layer
/// pipeline over just the edited units, inside one `op` span.
struct TraceState {
    tracer: Tracer,
    plain: Tracer,
    plain_mirror: Mirror,
    traced_mirror: Mirror,
    config: AuditConfig,
    cache: AuditCache,
    cache_dir: PathBuf,
    project: Project,
    findings: Vec<Finding>,
    reference: u64,
    extra: Extra,
}

impl TraceState {
    fn new(d: &Daemon, work: &WorkDir) -> Result<TraceState, String> {
        let config = AuditConfig {
            jobs: 1,
            ..AuditConfig::default()
        };
        let project = Project::scan(&d.root).map_err(|e| format!("scanning the tree: {e}"))?;
        let cache_dir = work.path().join("trace-cache");
        let mut cache = AuditCache::with_dir(&cache_dir);
        let report = audit_with_cache(&project, &config, &mut cache);
        let plain = Tracer::new(false);
        let mut plain_mirror = Mirror::new(&config);
        let mut traced_mirror = Mirror::new(&config);
        let base: Vec<String> = report
            .findings
            .iter()
            .map(refminer::serve::render_finding_line)
            .collect();
        let mirrored = plain_mirror.run(project.units(), &plain);
        traced_mirror.run(project.units(), &plain);
        if base != d.base_lines || digest(&mirrored) != digest(&report.findings) {
            return Err("traced and untraced findings disagree on the base tree".into());
        }
        Ok(TraceState {
            tracer: Tracer::new(true),
            plain,
            plain_mirror,
            traced_mirror,
            config,
            cache,
            cache_dir,
            project,
            reference: digest(&report.findings),
            findings: report.findings,
            extra: Extra::default(),
        })
    }

    fn edit(&mut self, out: &mut Outcome, d: &Daemon, edit: &Edit) {
        let t = &self.tracer;
        t.set_op(self.extra.ops as u32);
        let op = t.span("op");
        let project = {
            let _s = t.span("project.scan");
            Project::scan(&d.root)
        };
        let project = match project {
            Ok(p) => p,
            Err(e) => {
                out.problem(format!("rescan failed: {e}"));
                return;
            }
        };
        let report = {
            let _s = t.span("core.audit.call");
            audit_with_cache(&project, &self.config, &mut self.cache)
        };
        count_cache(t, &report);
        let (introduced, fixed, _moved) = {
            let _s = t.span("core.diff.delta");
            diff_findings(&self.findings, &report.findings)
        };
        {
            let _s = t.span("sweep.left_behind");
            let left = sweep_left_behind(
                &fixed,
                &self.project,
                &project,
                &report.findings,
                &report.kb,
            );
            t.add(
                "sweep.left_behind",
                left.iter().map(|l| l.matches.len()).sum::<usize>() as f64,
            );
        }
        {
            let _s = t.span("core.cache.save");
            if let Err(e) = self.cache.save() {
                out.problem(format!("cache save failed: {e}"));
            }
        }
        {
            let _s = t.span("core.cache.load");
            let loaded = AuditCache::with_dir(&self.cache_dir);
            if !matches!(loaded.load_outcome(), refminer::CacheLoadOutcome::Loaded) {
                out.problem("saved cache did not load back");
            }
        }
        if let Ok(m) = std::fs::metadata(self.cache_dir.join(CACHE_FILE)) {
            t.max("core.cache.bytes", m.len() as f64);
        }
        let changed: Vec<usize> = edit
            .iter()
            .filter_map(|(p, _)| project.units().iter().position(|u| &u.path == p))
            .collect();
        let start = Instant::now();
        let traced = self.traced_mirror.update(project.units(), &changed, t);
        self.extra.traced_secs += start.elapsed().as_secs_f64();
        drop(op);
        let start = Instant::now();
        let untraced = self
            .plain_mirror
            .update(project.units(), &changed, &self.plain);
        self.extra.plain_secs += start.elapsed().as_secs_f64();

        if !introduced.is_empty() || !fixed.is_empty() || changed.len() != edit.len() {
            out.problem(format!(
                "traced op {}: the edit was not neutral",
                self.extra.ops
            ));
        }
        for (what, findings) in [
            ("audit at one job", &report.findings),
            ("untraced layer pipeline", &untraced),
            ("traced layer pipeline", &traced),
        ] {
            if digest(findings) != self.reference {
                out.problem(format!(
                    "traced op {}: {what} findings differ from the untraced audit",
                    self.extra.ops
                ));
            }
        }
        self.project = project;
        self.findings = report.findings;
        self.extra.ops += 1;
    }
}
