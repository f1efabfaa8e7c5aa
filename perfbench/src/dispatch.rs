//! The `hot-functions` generator: ceval-shaped translation units.
//!
//! Each unit holds one large `switch`/`goto` dispatch function over many
//! `struct device_node *` locals. Every `case` arm acquires a node with
//! an `of_find_*` call, checks it, and releases it with `of_node_put`
//! before jumping back to the dispatch label; an error check in the arm
//! jumps to the arm's own label, which releases the node too. A seeded
//! share of the arms is *leaky*: its label returns without the release. The generator records every arm's line range and
//! whether it leaks, so findings can be scored per arm rather than per
//! function.

use refminer_prng::{ChaCha8Rng, Rng, SeedableRng};

/// The acquire APIs the arms draw from; all are released by
/// `of_node_put`.
const FIND_CALLS: [&str; 3] = [
    "of_find_node_by_name(NULL, \"vm-node\")",
    "of_find_compatible_node(NULL, NULL, \"vendor,vm\")",
    "of_find_node_by_path(\"/soc/vm\")",
];

/// Shape of one generated dispatch function.
#[derive(Debug, Clone, Copy)]
pub struct DispatchShape {
    /// `case` arms in the switch.
    pub arms: usize,
    /// Pointer locals the arms cycle through.
    pub locals: usize,
    /// One arm in this many leaks (at least one arm per unit always
    /// leaks).
    pub leak_one_in: usize,
}

/// One generated `case` arm, as the ground truth sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlantedArm {
    /// File the arm lives in.
    pub path: String,
    /// The dispatch function.
    pub function: String,
    /// First and last source line of the arm's `case` block, 1-based
    /// and inclusive.
    pub case_lines: (u32, u32),
    /// First and last line of the arm's own error label block, where
    /// the missing release is reported.
    pub label_lines: (u32, u32),
    /// Whether the arm leaks its node on an error exit.
    pub leaky: bool,
}

/// Generated units plus their per-arm ground truth.
#[derive(Debug, Clone, Default)]
pub struct DispatchSet {
    /// `(path, source)` per unit.
    pub files: Vec<(String, String)>,
    /// Every arm of every unit, in file order.
    pub arms: Vec<PlantedArm>,
}

impl DispatchSet {
    /// Number of leaky arms.
    pub fn leaky(&self) -> usize {
        self.arms.iter().filter(|a| a.leaky).count()
    }

    /// Index of the arm of `path`/`function` whose line ranges hold
    /// `line`.
    pub fn arm_at(&self, path: &str, function: &str, line: u32) -> Option<usize> {
        self.arms.iter().position(|a| {
            a.path == path
                && a.function == function
                && [a.case_lines, a.label_lines]
                    .iter()
                    .any(|&(first, last)| (first..=last).contains(&line))
        })
    }
}

/// Writes source text while tracking the current line number.
struct Emitter {
    out: String,
    line: u32,
}

impl Emitter {
    fn line(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
        self.line += 1;
    }

    /// The line number the next `line` call writes.
    fn next_line(&self) -> u32 {
        self.line + 1
    }
}

/// Generates `units` dispatch units of the given shape, deterministically
/// from `seed`.
pub fn generate(seed: u64, units: usize, shape: DispatchShape) -> DispatchSet {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd15a_7c4e_5eed_0001);
    let mut set = DispatchSet::default();
    for u in 0..units {
        let path = format!("drivers/vm/vm_eval{u}.c");
        let function = format!("vm_eval_frame{u}");
        let forced = rng.gen_range(0..shape.arms);
        let mut e = Emitter {
            out: String::new(),
            line: 0,
        };
        e.line("#include <linux/of.h>");
        e.line("");
        e.line("struct vm_frame {");
        e.line("\tint pc;");
        e.line("\tint acc;");
        e.line("\tint flags;");
        e.line("};");
        e.line("");
        e.line(&format!("static int vm_next{u}(struct vm_frame *f)"));
        e.line("{");
        e.line("\treturn f->pc++;");
        e.line("}");
        e.line("");
        e.line(&format!("int {function}(struct vm_frame *f, int op)"));
        e.line("{");
        for l in 0..shape.locals {
            e.line(&format!("\tstruct device_node *np{l} = NULL;"));
        }
        e.line("");
        e.line("dispatch:");
        e.line("\tswitch (op) {");
        // Arms first; each arm's error label is emitted after the
        // switch, so the line ranges are patched in afterwards.
        let mut labels: Vec<(usize, usize, String, bool)> = Vec::new();
        for a in 0..shape.arms {
            let leaky = a == forced || rng.gen_range(0..shape.leak_one_in) == 0;
            let var = format!("np{}", a % shape.locals);
            let call = FIND_CALLS[rng.gen_range(0..FIND_CALLS.len())];
            let first = e.next_line();
            e.line(&format!("\tcase {a}:"));
            e.line(&format!("\t\t{var} = {call};"));
            e.line(&format!("\t\tif (!{var})"));
            e.line("\t\t\treturn -ENODEV;");
            e.line(&format!("\t\tf->acc += {};", a + 1));
            e.line(&format!("\t\tif (f->flags & {})", 1 << (a % 8)));
            e.line(&format!("\t\t\tgoto fail{a};"));
            e.line(&format!("\t\tof_node_put({var});"));
            e.line(&format!("\t\top = vm_next{u}(f);"));
            let last = e.next_line();
            e.line("\t\tgoto dispatch;");
            set.arms.push(PlantedArm {
                path: path.clone(),
                function: function.clone(),
                case_lines: (first, last),
                label_lines: (0, 0),
                leaky,
            });
            labels.push((a, set.arms.len() - 1, var, leaky));
        }
        e.line("\tdefault:");
        e.line("\t\tbreak;");
        e.line("\t}");
        e.line("\treturn 0;");
        for (a, i, var, leaky) in labels {
            let first = e.next_line();
            e.line(&format!("fail{a}:"));
            if leaky {
                e.line("\tf->acc = 0;");
            } else {
                e.line(&format!("\tof_node_put({var});"));
            }
            let last = e.next_line();
            e.line("\treturn -EINVAL;");
            set.arms[i].label_lines = (first, last);
        }
        e.line("}");
        set.files.push((path, e.out));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer::{audit, AuditConfig, Project};

    /// The size at which the generator's ground truth is checked against
    /// the audit: eight arms over four locals make a CFG of about a hundred
    /// nodes, which converges in a handful of worklist passes, far inside
    /// every node cap and fixpoint budget.
    const VALIDATION_SHAPE: DispatchShape = DispatchShape {
        arms: 8,
        locals: 4,
        leak_one_in: 3,
    };

    const SMALL: DispatchShape = DispatchShape {
        arms: 12,
        locals: 6,
        leak_one_in: 4,
    };

    #[test]
    fn same_seed_same_units() {
        let a = generate(7, 2, SMALL);
        let b = generate(7, 2, SMALL);
        assert_eq!(a.files, b.files);
        assert_eq!(a.arms, b.arms);
        assert_ne!(generate(8, 2, SMALL).files, a.files);
    }

    #[test]
    fn arm_ranges_cover_their_case_labels() {
        let set = generate(3, 1, SMALL);
        let src: Vec<&str> = set.files[0].1.lines().collect();
        for (i, arm) in set.arms.iter().enumerate() {
            let line = |n: u32| src[n as usize - 1].trim();
            assert_eq!(line(arm.case_lines.0), format!("case {i}:"));
            assert_eq!(line(arm.case_lines.1), "goto dispatch;");
            assert_eq!(line(arm.label_lines.0), format!("fail{i}:"));
            assert_eq!(line(arm.label_lines.1), "return -EINVAL;");
        }
        assert!(set.leaky() >= 1);
    }

    /// The ground truth holds where no analysis budget can trip: at
    /// [`VALIDATION_SHAPE`] the audit reports exactly one finding per
    /// leaky arm, inside that arm, and none in a clean arm.
    #[test]
    fn audit_finds_exactly_the_leaky_arms_at_validation_size() {
        for seed in 1..=8 {
            let set = generate(seed, 2, VALIDATION_SHAPE);
            let report = audit(
                &Project::from_sources(set.files.clone()),
                &AuditConfig::default(),
            );
            assert!(report.diagnostics.is_clean(), "seed {seed}");
            let mut hit = vec![0usize; set.arms.len()];
            for f in &report.findings {
                let arm = set
                    .arm_at(&f.file, &f.function, f.line)
                    .unwrap_or_else(|| panic!("seed {seed}: finding outside every arm: {f:?}"));
                assert!(
                    set.arms[arm].leaky,
                    "seed {seed}: finding in a clean arm: {f:?}"
                );
                hit[arm] += 1;
            }
            for (arm, n) in set.arms.iter().zip(hit) {
                assert_eq!(n, usize::from(arm.leaky), "seed {seed}: {arm:?}");
            }
        }
    }
}
