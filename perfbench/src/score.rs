//! Scores findings against the ground truth the inputs were generated
//! with: the corpus manifest plus, for `hot-functions`, the planted
//! dispatch arms.
//!
//! A manifest bug counts as found when some finding in its file and
//! function claims its pattern — by pattern number, or by listing the
//! pattern's checker — the rule `refminer eval` applies. A planted
//! leaky arm counts as found when some finding lands inside the arm's
//! `case` block or its error label. Precision is the share of findings
//! that match some manifest bug or leaky arm.

use refminer::corpus::Manifest;
use refminer::{AntiPattern, Finding};
use refminer_json::Value;

use crate::dispatch::DispatchSet;

/// The checker that owns each manifest pattern number.
fn checker_for(pattern: u8) -> &'static str {
    match pattern {
        1 => "ReturnErrorChecker",
        2 => "ReturnNullChecker",
        3 => "SmartLoopBreakChecker",
        4 => "HiddenApiChecker",
        5 => "ErrorPathChecker",
        6 => "InterUnpairedChecker",
        7 => "DirectFreeChecker",
        8 => "UadChecker",
        9 => "EscapeChecker",
        _ => "",
    }
}

/// The fields of a finding that scoring reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// File the finding is in.
    pub file: String,
    /// Function the finding is in.
    pub function: String,
    /// 1-based line.
    pub line: u32,
    /// Manifest pattern number (P1 = 1).
    pub pattern: u8,
    /// Checkers that reported the site.
    pub checkers: Vec<String>,
}

fn pattern_number(id: &str) -> u8 {
    AntiPattern::all()
        .iter()
        .position(|p| p.id() == id)
        .map_or(0, |i| i as u8 + 1)
}

impl Claim {
    /// The claim of an in-process finding.
    pub fn of(f: &Finding) -> Claim {
        Claim {
            file: f.file.clone(),
            function: f.function.clone(),
            line: f.line,
            pattern: pattern_number(f.pattern.id()),
            checkers: f.checkers.clone(),
        }
    }

    /// The claim of one rendered finding line (the daemon's `query`
    /// output). `None` if the line is not a finding object.
    pub fn parse(line: &str) -> Option<Claim> {
        let v = Value::parse(line).ok()?;
        Some(Claim {
            file: v.get("file")?.as_str()?.to_string(),
            function: v.get("function")?.as_str()?.to_string(),
            line: u32::try_from(v.get("line")?.as_u64()?).ok()?,
            pattern: pattern_number(v.get("pattern")?.as_str()?),
            checkers: v
                .get("checkers")?
                .as_array()?
                .iter()
                .map(|c| c.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }

    fn claims(&self, path: &str, function: &str, pattern: u8) -> bool {
        self.file == path
            && self.function == function
            && (self.pattern == pattern || self.checkers.iter().any(|c| c == checker_for(pattern)))
    }
}

/// Ground truth for one workload's inputs.
pub struct Truth<'a> {
    /// The corpus generator's manifest.
    pub manifest: &'a Manifest,
    /// The planted dispatch units (empty outside `hot-functions`).
    pub dispatch: &'a DispatchSet,
}

/// Scoring outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Score {
    /// Manifest bugs plus leaky arms.
    pub truths: usize,
    /// Of those, found.
    pub found: usize,
    /// Findings scored.
    pub findings: usize,
    /// Findings matching some manifest bug or leaky arm.
    pub matching: usize,
    /// Findings inside a clean dispatch arm.
    pub clean_arm_hits: usize,
}

impl Score {
    /// Found truths over all truths (1 when there are none).
    pub fn recall(&self) -> f64 {
        if self.truths == 0 {
            1.0
        } else {
            self.found as f64 / self.truths as f64
        }
    }

    /// Matching findings over all findings (1 when there are none).
    pub fn precision(&self) -> f64 {
        if self.findings == 0 {
            1.0
        } else {
            self.matching as f64 / self.findings as f64
        }
    }
}

impl Truth<'_> {
    /// Scores `claims`.
    pub fn score(&self, claims: &[Claim]) -> Score {
        let bugs = &self.manifest.bugs;
        let found_bugs = bugs
            .iter()
            .filter(|b| {
                claims
                    .iter()
                    .any(|c| c.claims(&b.path, &b.function, b.pattern))
            })
            .count();
        let mut arm_hit = vec![false; self.dispatch.arms.len()];
        let mut matching = 0;
        let mut clean_arm_hits = 0;
        for c in claims {
            if let Some(i) = self.dispatch.arm_at(&c.file, &c.function, c.line) {
                if self.dispatch.arms[i].leaky {
                    arm_hit[i] = true;
                    matching += 1;
                } else {
                    clean_arm_hits += 1;
                }
            } else if bugs
                .iter()
                .any(|b| c.claims(&b.path, &b.function, b.pattern))
            {
                matching += 1;
            }
        }
        Score {
            truths: bugs.len() + self.dispatch.leaky(),
            found: found_bugs + arm_hit.iter().filter(|&&h| h).count(),
            findings: claims.len(),
            matching,
            clean_arm_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer::corpus::{generate_tree, TreeConfig};
    use refminer::{audit, evaluate, AuditConfig, Project};

    #[test]
    fn recall_agrees_with_refminer_eval_and_lines_parse_back() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.1,
            fp_traps: true,
            ..TreeConfig::default()
        });
        let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
        let claims: Vec<Claim> = report.findings.iter().map(Claim::of).collect();
        let none = DispatchSet::default();
        let truth = Truth {
            manifest: &tree.manifest,
            dispatch: &none,
        };
        let score = truth.score(&claims);
        let eval = evaluate(&report.findings, &tree.manifest);
        assert_eq!(score.found, eval.totals.tp);
        assert_eq!(score.truths, eval.totals.tp + eval.totals.missed);
        assert_eq!(score.findings - score.matching, eval.totals.fp);

        let parsed: Vec<Claim> = report
            .findings
            .iter()
            .map(|f| Claim::parse(&refminer::serve::render_finding_line(f)).unwrap())
            .collect();
        assert_eq!(parsed, claims);
    }
}
