//! `refminer fixcheck`: audit both sides of a fix and report what the
//! fix left behind.
//!
//! The diff-side mechanics (parsing, reverse-apply, intent inference)
//! live in `refminer-fixcheck`; this module owns the tree side, which
//! is the `refminer diff` pipeline run over a reconstructed tree:
//!
//! 1. reverse-apply the fix diff onto the *post-fix* tree to
//!    reconstruct the pre-fix sources in memory;
//! 2. audit both trees through one shared [`AuditCache`] (only the
//!    touched units differ, so the second audit re-parses just the
//!    delta), under the caller's trace and cancel token;
//! 3. [`diff_delta`] over the two finding lists: `fixed` is exactly
//!    the set of findings the fix resolved, `introduced` is what the
//!    fix itself broke, and `left_behind` sweeps the post-fix findings
//!    for clone sites of each fixed finding that the fix did not touch;
//! 4. at render time, attribute each fixed finding to a diff intent
//!    (the acquire or release API named on a changed line).
//!
//! A neutral diff (refactor, comment churn) reverse-applies to a tree
//! with identical findings, so `fixed` is empty and the report is
//! clean by construction — intent inference annotates, it never
//! filters recall.

use std::collections::HashMap;
use std::path::Path;

use refminer_checkers::Finding;
use refminer_fixcheck::{
    infer_intents, intent_covers, parse_diff, paths_match, render_file_diff, FixDiff, FixIntent,
};
use refminer_json::{obj, ToJson, Value};
use refminer_trace::TraceHandle;

use crate::audit::{audit_cancellable, AuditConfig, AuditReport};
use crate::cache::AuditCache;
use crate::cancel::{CancelToken, Cancelled};
use crate::diff::{diff_delta, DiffDelta};
use crate::project::Project;
use crate::serve::render_finding_line;

/// Everything `refminer fixcheck` reports for one fix diff.
#[derive(Debug)]
pub struct FixcheckReport {
    /// The acquire/release APIs the diff's changed lines name.
    pub intents: Vec<FixIntent>,
    /// Pre-fix → post-fix findings delta, with the left-behind sweep:
    /// `fixed` is what the fix resolved, `introduced` what it broke,
    /// `left_behind` the clone sites it did not touch.
    pub delta: DiffDelta,
    /// Source files the diff touched in the tree.
    pub files_changed: usize,
    /// The post-fix audit (findings, KB, cache stats).
    pub report: AuditReport,
}

impl FixcheckReport {
    /// The diff API a fixed finding is attributed to: the first intent
    /// that covers it under the post-fix KB.
    fn intent_of(&self, origin: &Finding) -> Option<&str> {
        self.intents
            .iter()
            .find(|i| intent_covers(i, origin, &self.report.kb))
            .map(|i| i.api.as_str())
    }
}

/// Finds the unit in `project` a diff path names, tolerating the
/// `a/`-style and directory prefixes `paths_match` accepts.
fn unit_index(project: &Project, diff_path: &str) -> Option<usize> {
    project
        .units()
        .iter()
        .position(|u| paths_match(diff_path, &u.path))
}

/// True for the file kinds the scanner audits; diffs routinely also
/// touch manifests, Makefiles and docs, which have no units to match.
fn is_source_path(path: &str) -> bool {
    path.ends_with(".c") || path.ends_with(".h")
}

/// Parses `diff_text` and reconstructs the pre-fix tree by
/// reverse-applying it onto `post`, returning the diff, the tree and
/// the number of source files the diff touched.
fn pre_fix_tree(post: &Project, diff_text: &str) -> Result<(FixDiff, Project, usize), String> {
    let diff = parse_diff(diff_text)?;
    let mut pre_sources: Vec<(String, String)> = post
        .units()
        .iter()
        .map(|u| (u.path.clone(), u.text.clone()))
        .collect();
    let mut files_changed = 0usize;
    for file in &diff.files {
        if !is_source_path(file.path()) {
            continue;
        }
        if file.is_added() {
            if unit_index(post, file.path()).is_none() {
                return Err(format!(
                    "diff adds `{}` but the tree does not contain it",
                    file.path()
                ));
            }
            // An added file has no pre-fix text: drop it from the
            // reconstructed pre tree.
            pre_sources.retain(|(p, _)| !paths_match(file.path(), p));
            files_changed += 1;
            continue;
        }
        if file.is_deleted() {
            let pre_text = file.reverse_apply("")?;
            pre_sources.push((file.path().to_string(), pre_text));
            files_changed += 1;
            continue;
        }
        let Some(idx) = unit_index(post, file.path()) else {
            return Err(format!(
                "diff touches `{}` but the tree does not contain it",
                file.path()
            ));
        };
        let unit = &post.units()[idx];
        let pre_text = file.reverse_apply(&unit.text)?;
        if let Some(slot) = pre_sources.iter_mut().find(|(p, _)| *p == unit.path) {
            slot.1 = pre_text;
        }
        files_changed += 1;
    }
    if files_changed == 0 {
        return Err("diff does not touch any C source file in the tree".to_string());
    }
    Ok((diff, Project::from_sources(pre_sources), files_changed))
}

/// Runs the full fixcheck pipeline against an in-memory post-fix tree.
///
/// Both audits run under `trace` and `cancel`, like any other audit;
/// a tripped token returns `Err(Cancelled)` and leaves the cache as
/// consistent as [`audit_cancellable`] does. The inner error (which
/// the CLI maps to exit 2 and the daemon to `bad_request`) is a diff
/// the tree rejects: one that is not unified-diff text, names a source
/// file the tree does not contain, does not apply to the tree's
/// contents, or touches no source file at all.
pub fn fixcheck_project(
    post: &Project,
    diff_text: &str,
    config: &AuditConfig,
    cache: &mut AuditCache,
    trace: &TraceHandle,
    cancel: &CancelToken,
) -> Result<Result<FixcheckReport, String>, Cancelled> {
    let (diff, pre, files_changed) = match pre_fix_tree(post, diff_text) {
        Ok(t) => t,
        Err(e) => return Ok(Err(e)),
    };
    let report_pre = audit_cancellable(&pre, config, cache, trace, cancel)?;
    let report_post = audit_cancellable(post, config, cache, trace, cancel)?;
    let delta = diff_delta(
        &report_pre.findings,
        &report_post.findings,
        Some(&pre),
        post,
        &report_post.kb,
        true,
    );
    Ok(Ok(FixcheckReport {
        intents: infer_intents(&diff, &report_post.kb),
        delta,
        files_changed,
        report: report_post,
    }))
}

/// Scans `root` (the post-fix tree) and runs [`fixcheck_project`]
/// untraced and uncancellable — the `refminer fixcheck` CLI entry
/// point.
pub fn fixcheck_audit(
    root: &Path,
    diff_text: &str,
    config: &AuditConfig,
    cache: &mut AuditCache,
) -> Result<FixcheckReport, String> {
    let post = Project::scan(root).map_err(|e| format!("cannot scan {}: {e}", root.display()))?;
    fixcheck_project(
        &post,
        diff_text,
        config,
        cache,
        &TraceHandle::disabled(),
        &CancelToken::never(),
    )
    .expect("a never-cancelled audit cannot be cancelled")
}

/// Renders the unified diff that turns `pre` into `post`: one
/// single-hunk [`render_file_diff`] per changed unit, in `post`'s unit
/// order. A unit missing from `pre` diffs against empty text; a unit
/// missing from `post` is not rendered.
pub fn render_tree_diff(pre: &Project, post: &Project) -> String {
    let old: HashMap<&str, &str> = pre
        .units()
        .iter()
        .map(|u| (u.path.as_str(), u.text.as_str()))
        .collect();
    let mut out = String::new();
    for u in post.units() {
        let prev = old.get(u.path.as_str()).copied().unwrap_or("");
        if let Some(d) = render_file_diff(&u.path, prev, &u.text) {
            out.push_str(&d);
        }
    }
    out
}

/// Renders a fixcheck report as the JSONL lines `refminer fixcheck
/// --json` prints: intents, fixed findings, introduced findings, one
/// line per left-behind clone match (ranked by sweep score within
/// each origin), then a summary line. Deterministic for a given tree
/// and diff at any `--jobs` or cache temperature.
pub fn render_fixcheck_lines(r: &FixcheckReport) -> Vec<String> {
    let mut lines = Vec::new();
    for intent in &r.intents {
        let mut v = intent.to_json();
        if let Value::Obj(members) = &mut v {
            members.insert(
                0,
                ("fixcheck".to_string(), Value::Str("intent".to_string())),
            );
        }
        lines.push(v.to_string());
    }
    for f in &r.delta.fixed {
        lines.push(
            obj([
                ("fixcheck", Value::Str("fixed".to_string())),
                ("line", Value::Str(render_finding_line(f))),
            ])
            .to_string(),
        );
    }
    for f in &r.delta.introduced {
        lines.push(
            obj([
                ("fixcheck", Value::Str("introduced".to_string())),
                ("line", Value::Str(render_finding_line(f))),
            ])
            .to_string(),
        );
    }
    for lb in &r.delta.left_behind {
        let intent = r.intent_of(&lb.origin);
        for m in &lb.matches {
            lines.push(
                obj([
                    ("fixcheck", Value::Str("incomplete".to_string())),
                    (
                        "origin",
                        obj([
                            ("file", lb.origin.file.to_json()),
                            ("function", lb.origin.function.to_json()),
                            ("line", lb.origin.line.to_json()),
                            ("api", lb.origin.api.to_json()),
                        ]),
                    ),
                    ("intent", intent.map_or(Value::Null, Value::from)),
                    ("score", m.score.to_json()),
                    (
                        "confidence",
                        Value::Str(m.finding.confidence().name().to_string()),
                    ),
                    (
                        "engines",
                        Value::Arr(
                            m.finding
                                .engines
                                .iter()
                                .map(|e| Value::Str(e.name().to_string()))
                                .collect(),
                        ),
                    ),
                    ("line", Value::Str(render_finding_line(&m.finding))),
                ])
                .to_string(),
            );
        }
    }
    lines.push(
        obj([
            ("fixcheck", Value::Str("summary".to_string())),
            ("files_changed", r.files_changed.to_json()),
            ("fixed", r.delta.fixed.len().to_json()),
            ("introduced", r.delta.introduced.len().to_json()),
            ("incomplete", r.delta.left_behind_total().to_json()),
            ("clean", r.delta.is_clean().into()),
        ])
        .to_string(),
    );
    lines
}

/// One replayed fix commit in `eval --fixcheck`.
#[derive(Debug)]
pub struct FixcheckEvalRow {
    /// Revision id (`rev01`, …).
    pub revision: String,
    /// The clone group the commit fixed (`cg0`, …), when it fixed one.
    pub group: Option<String>,
    /// Unfixed sibling sites the manifest says should be reported.
    pub expected: usize,
    /// Found / missed / spurious against that ground truth.
    pub counts: crate::eval::SweepCounts,
}

/// `eval --fixcheck` over a `histgen` fix-history root.
#[derive(Debug)]
pub struct FixcheckEvalReport {
    /// One row per non-base revision.
    pub rows: Vec<FixcheckEvalRow>,
    /// Column sums.
    pub totals: crate::eval::SweepCounts,
}

impl ToJson for FixcheckEvalReport {
    fn to_json(&self) -> Value {
        obj([
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("revision", r.revision.to_json()),
                                (
                                    "group",
                                    match &r.group {
                                        Some(g) => g.to_json(),
                                        None => Value::Null,
                                    },
                                ),
                                ("expected", r.expected.to_json()),
                                ("found", r.counts.found.to_json()),
                                ("missed", r.counts.missed.to_json()),
                                ("spurious", r.counts.spurious.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "totals",
                obj([
                    ("found", self.totals.found.to_json()),
                    ("missed", self.totals.missed.to_json()),
                    ("spurious", self.totals.spurious.to_json()),
                    ("recall", self.totals.recall().to_json()),
                ]),
            ),
        ])
    }
}

/// Replays every commit of a `histgen` fix-history root through the
/// fixcheck pipeline and scores the incomplete-fix reports against
/// the manifest's clone-group ground truth.
///
/// For a commit that fixes group `g` member 0, the expected reports
/// are exactly the group's still-unfixed members; `found`/`missed`
/// score those, and any reported site that is not an injected bug at
/// all counts as `spurious`. The trailing neutral-churn commit must
/// come back clean — everything it reports is spurious.
pub fn evaluate_fixcheck(root: &Path, config: &AuditConfig) -> Result<FixcheckEvalReport, String> {
    let text = std::fs::read_to_string(root.join("history.json"))
        .map_err(|e| format!("cannot read {}/history.json: {e}", root.display()))?;
    let v = Value::parse(&text).map_err(|e| format!("malformed history.json: {e:?}"))?;
    let revisions = v
        .get("revisions")
        .and_then(|r| r.as_array())
        .ok_or_else(|| "history.json has no `revisions` array".to_string())?;
    if revisions.len() < 2 {
        return Err(format!(
            "fix history under {} has {} revision(s); need a base plus at least one commit",
            root.display(),
            revisions.len()
        ));
    }
    let mut cache = AuditCache::new();
    let mut rows = Vec::new();
    let mut totals = crate::eval::SweepCounts::default();
    let mut prev: Option<Project> = None;
    for rev in revisions {
        let id = rev
            .get("id")
            .and_then(|x| x.as_str())
            .ok_or_else(|| "revision without `id` in history.json".to_string())?
            .to_string();
        let dir = rev
            .get("dir")
            .and_then(|x| x.as_str())
            .ok_or_else(|| "revision without `dir` in history.json".to_string())?;
        let post = Project::scan(&root.join(dir))
            .map_err(|e| format!("cannot scan revision {id}: {e}"))?;
        let Some(pre) = prev.take() else {
            prev = Some(post);
            continue; // the base import has no diff to check
        };
        let r = fixcheck_project(
            &post,
            &render_tree_diff(&pre, &post),
            config,
            &mut cache,
            &TraceHandle::disabled(),
            &CancelToken::never(),
        )
        .expect("a never-cancelled audit cannot be cancelled")
        .map_err(|e| format!("fixcheck failed on {id}: {e}"))?;
        let manifest_text = std::fs::read_to_string(root.join(dir).join("manifest.json"))
            .map_err(|e| format!("cannot read manifest for {id}: {e}"))?;
        let manifest_json = Value::parse(&manifest_text)
            .map_err(|e| format!("malformed manifest for {id}: {e:?}"))?;
        let manifest = refminer_corpus::Manifest::from_json(&manifest_json)
            .ok_or_else(|| format!("manifest for {id} does not parse"))?;
        let group = rev
            .get("fixed")
            .and_then(|f| f.as_array())
            .and_then(|f| f.first())
            .and_then(|f| f.get("group"))
            .and_then(|g| g.as_str())
            .map(|g| g.to_string());
        let expected: Vec<(String, String)> = match &group {
            Some(g) => manifest
                .clone_groups
                .iter()
                .filter(|cg| cg.group == *g)
                .flat_map(|cg| &cg.members)
                .filter(|m| !m.fixed)
                .map(|m| (m.path.clone(), m.function.clone()))
                .collect(),
            None => Vec::new(),
        };
        let reported: Vec<(&str, &str)> = r
            .delta
            .left_behind
            .iter()
            .flat_map(|i| &i.matches)
            .map(|m| (m.finding.file.as_str(), m.finding.function.as_str()))
            .collect();
        let mut counts = crate::eval::SweepCounts::default();
        for (path, function) in &expected {
            if reported
                .iter()
                .any(|(f, func)| f == path && func == function)
            {
                counts.found += 1;
            } else {
                counts.missed += 1;
            }
        }
        for (file, function) in &reported {
            let is_injected = manifest
                .bugs
                .iter()
                .any(|b| b.path == *file && b.function == *function);
            if !is_injected {
                counts.spurious += 1;
            }
        }
        totals.found += counts.found;
        totals.missed += counts.missed;
        totals.spurious += counts.spurious;
        rows.push(FixcheckEvalRow {
            revision: id,
            group,
            expected: expected.len(),
            counts,
        });
        prev = Some(post);
    }
    Ok(FixcheckEvalReport { rows, totals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelReason;

    /// Runs [`fixcheck_project`] untraced and uncancellable.
    fn run(post: &Project, diff: &str, cache: &mut AuditCache) -> Result<FixcheckReport, String> {
        fixcheck_project(
            post,
            diff,
            &AuditConfig::default(),
            cache,
            &TraceHandle::disabled(),
            &CancelToken::never(),
        )
        .expect("never cancelled")
    }

    // A P4 two-site shape: both functions forget `of_node_put` on the
    // error path; the "fix" patches only `alpha_probe`.
    fn buggy_unit() -> (String, String) {
        (
            "drivers/demo/pair.c".to_string(),
            "static int alpha_probe(void)\n{\n\
             \tstruct device_node *np;\n\
             \tnp = of_find_node_by_name(NULL, \"alpha\");\n\
             \tif (!np)\n\t\treturn -ENODEV;\n\
             \tif (alpha_setup(np))\n\t\treturn -EIO;\n\
             \tof_node_put(np);\n\treturn 0;\n}\n\
             \n\
             static int beta_probe(void)\n{\n\
             \tstruct device_node *np;\n\
             \tnp = of_find_node_by_name(NULL, \"beta\");\n\
             \tif (!np)\n\t\treturn -ENODEV;\n\
             \tif (beta_setup(np))\n\t\treturn -EIO;\n\
             \tof_node_put(np);\n\treturn 0;\n}\n"
                .to_string(),
        )
    }

    fn fixed_alpha(text: &str) -> String {
        text.replacen(
            "\tif (alpha_setup(np))\n\t\treturn -EIO;\n",
            "\tif (alpha_setup(np)) {\n\t\tof_node_put(np);\n\t\treturn -EIO;\n\t}\n",
            1,
        )
    }

    #[test]
    fn partial_fix_reports_the_sibling_left_behind() {
        let (path, pre_text) = buggy_unit();
        let post_text = fixed_alpha(&pre_text);
        let diff = render_file_diff(&path, &pre_text, &post_text).expect("texts differ");
        let post = Project::from_sources(vec![(path.clone(), post_text)]);
        let mut cache = AuditCache::new();
        let r = run(&post, &diff, &mut cache).expect("fixcheck runs");
        assert_eq!(r.files_changed, 1);
        assert!(
            r.delta.fixed.iter().any(|f| f.function == "alpha_probe"),
            "the patched error path should count as fixed; fixed = {:?}",
            r.delta.fixed
        );
        assert!(!r.delta.is_clean());
        assert!(
            r.delta
                .left_behind
                .iter()
                .flat_map(|i| &i.matches)
                .any(|m| m.finding.function == "beta_probe"),
            "beta_probe still leaks and must be reported as left behind"
        );
        let intent = r.intents.iter().find(|i| i.api == "of_node_put");
        assert!(intent.is_some(), "the added release names the intent");
        let lines = render_fixcheck_lines(&r);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"incomplete\"") && l.contains("\"intent\":\"of_node_put\"")));
        assert!(lines.last().unwrap().contains("\"clean\":false"));
    }

    #[test]
    fn neutral_diff_is_clean() {
        let (path, pre_text) = buggy_unit();
        // Rename-only churn: the tree still has both bugs, but the
        // diff fixes nothing, so fixcheck has nothing to hold against
        // it — pre and post findings are identical.
        let post_text = pre_text.replace("alpha_setup", "alpha_setup_hw");
        let diff = render_file_diff(&path, &pre_text, &post_text).expect("texts differ");
        let post = Project::from_sources(vec![(path, post_text)]);
        let mut cache = AuditCache::new();
        let r = run(&post, &diff, &mut cache).expect("fixcheck runs");
        assert!(r.delta.fixed.is_empty());
        assert!(r.delta.is_clean());
        let lines = render_fixcheck_lines(&r);
        assert!(lines.last().unwrap().contains("\"clean\":true"));
    }

    #[test]
    fn errors_are_diagnostic_not_panics() {
        let post = Project::from_sources(vec![("a.c".to_string(), "int x;\n".to_string())]);
        let mut cache = AuditCache::new();
        assert!(run(&post, "not a diff", &mut cache).is_err());
        let wrong_file = "--- a/missing.c\n+++ b/missing.c\n@@ -1,1 +1,1 @@\n-old\n+new\n";
        let err = run(&post, wrong_file, &mut cache).unwrap_err();
        assert!(err.contains("missing.c"), "got: {err}");
        let stale = "--- a/a.c\n+++ b/a.c\n@@ -1,1 +1,1 @@\n-int y;\n+int z;\n";
        let err = run(&post, stale, &mut cache).unwrap_err();
        assert!(err.contains("does not apply"), "got: {err}");
    }

    #[test]
    fn cancelled_token_stops_before_any_audit_work() {
        let (path, pre_text) = buggy_unit();
        let post_text = fixed_alpha(&pre_text);
        let diff = render_file_diff(&path, &pre_text, &post_text).expect("texts differ");
        let post = Project::from_sources(vec![(path, post_text)]);
        let mut cache = AuditCache::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        let out = fixcheck_project(
            &post,
            &diff,
            &AuditConfig::default(),
            &mut cache,
            &TraceHandle::disabled(),
            &cancel,
        );
        assert!(
            matches!(
                out,
                Err(Cancelled {
                    reason: CancelReason::Explicit
                })
            ),
            "a cancelled token must surface as Cancelled"
        );
        assert_eq!(
            cache.len(),
            (0, 0, 0),
            "a cancelled fixcheck caches nothing"
        );
    }

    #[test]
    fn tree_diff_renders_changed_and_added_units_in_post_order() {
        let pre = Project::from_sources(vec![
            ("a.c".to_string(), "int a;\n".to_string()),
            ("b.c".to_string(), "int b;\n".to_string()),
        ]);
        let post = Project::from_sources(vec![
            ("a.c".to_string(), "int a;\n".to_string()),
            ("b.c".to_string(), "int b2;\n".to_string()),
            ("c.c".to_string(), "int c;\n".to_string()),
        ]);
        let text = render_tree_diff(&pre, &post);
        let expected = render_file_diff("b.c", "int b;\n", "int b2;\n").unwrap()
            + &render_file_diff("c.c", "", "int c;\n").unwrap();
        assert_eq!(text, expected);
        assert!(render_tree_diff(&post, &post).is_empty());
    }
}
