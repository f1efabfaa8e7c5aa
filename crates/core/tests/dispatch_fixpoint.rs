//! Audit-level regressions for large `switch`/`goto` dispatch functions
//! (the shape of an interpreter's eval loop): their variable-origin
//! fixpoint must converge inside its budget and keep every finding, and
//! a function that does exhaust a budget must be reported as
//! `analysis_truncated` rather than analyzed partially in silence.

use refminer::{audit, AuditConfig, Project, UnitErrorKind, UnitOutcome};

/// One generated dispatch arm's line ranges and ground truth.
struct Arm {
    case_lines: (u32, u32),
    label_lines: (u32, u32),
    leaky: bool,
}

/// Source text that tracks the line it is on.
#[derive(Default)]
struct Emitter {
    out: String,
    line: u32,
}

impl Emitter {
    fn line(&mut self, s: &str) -> u32 {
        self.out.push_str(s);
        self.out.push('\n');
        self.line += 1;
        self.line
    }
}

/// A ceval-shaped unit: `arms` `case` arms over `locals` pointer
/// locals. Each arm acquires a node with an `of_find_*` call, may jump
/// to its own `failN` label, and releases the node on the way back to
/// the dispatch label. The labels picked by `seed` skip the release.
fn dispatch_unit(arms: usize, locals: usize, seed: u64) -> (String, Vec<Arm>) {
    const FINDS: [&str; 3] = [
        "of_find_node_by_name(NULL, \"vm-node\")",
        "of_find_compatible_node(NULL, NULL, \"vendor,vm\")",
        "of_find_node_by_path(\"/soc/vm\")",
    ];
    let mut state = seed;
    let mut next = move || {
        // xorshift64: deterministic and dependency-free.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut e = Emitter::default();
    e.line("#include <linux/of.h>");
    e.line("");
    e.line("int vm_eval_frame(struct vm_frame *f, int op)");
    e.line("{");
    for l in 0..locals {
        e.line(&format!("\tstruct device_node *np{l} = NULL;"));
    }
    e.line("dispatch:");
    e.line("\tswitch (op) {");
    let mut out = Vec::new();
    for a in 0..arms {
        let var = format!("np{}", a % locals);
        let call = FINDS[(next() % 3) as usize];
        let first = e.line(&format!("\tcase {a}:"));
        e.line(&format!("\t\t{var} = {call};"));
        e.line(&format!("\t\tif (!{var})"));
        e.line("\t\t\treturn -ENODEV;");
        e.line(&format!("\t\tif (f->flags & {})", 1 << (a % 8)));
        e.line(&format!("\t\t\tgoto fail{a};"));
        e.line(&format!("\t\tof_node_put({var});"));
        e.line("\t\top = vm_next(f);");
        let last = e.line("\t\tgoto dispatch;");
        out.push(Arm {
            case_lines: (first, last),
            label_lines: (0, 0),
            leaky: a == 0 || next() % 5 == 0,
        });
    }
    e.line("\tdefault:");
    e.line("\t\tbreak;");
    e.line("\t}");
    e.line("\treturn 0;");
    for (a, arm) in out.iter_mut().enumerate() {
        let first = e.line(&format!("fail{a}:"));
        if arm.leaky {
            e.line("\tf->acc = 0;");
        } else {
            e.line(&format!("\tof_node_put(np{});", a % locals));
        }
        let last = e.line("\treturn -EINVAL;");
        arm.label_lines = (first, last);
    }
    e.line("}");
    (e.out, out)
}

#[test]
fn dispatch_function_converges_and_finds_exactly_the_leaky_arms() {
    for seed in [1, 2, 3, 1001] {
        let (src, arms) = dispatch_unit(30, 12, seed);
        let leaky = arms.iter().filter(|a| a.leaky).count();
        assert!(leaky >= 1 && leaky < arms.len(), "seed {seed}: {leaky}");
        let report = audit(
            &Project::from_sources(vec![("drivers/vm/vm_eval.c".to_string(), src)]),
            &AuditConfig::default(),
        );
        assert!(
            report.diagnostics.is_clean(),
            "seed {seed}: {:?}",
            report.diagnostics.units
        );
        assert!(!report
            .diagnostics
            .by_kind()
            .contains_key(&UnitErrorKind::AnalysisTruncated));
        let mut hits = vec![0usize; arms.len()];
        for f in &report.findings {
            let arm = arms
                .iter()
                .position(|a| {
                    [a.case_lines, a.label_lines]
                        .iter()
                        .any(|&(first, last)| (first..=last).contains(&f.line))
                })
                .unwrap_or_else(|| panic!("seed {seed}: finding outside every arm: {f:?}"));
            hits[arm] += 1;
        }
        for (i, (arm, n)) in arms.iter().zip(hits).enumerate() {
            assert_eq!(n, usize::from(arm.leaky), "seed {seed}: arm {i}");
        }
    }
}

/// A loop that shifts a value down a chain of `len` pointer locals
/// needs about `len` passes over `len` nodes to converge: quadratic
/// work that outruns the linear origins budget.
fn shift_register(len: usize) -> String {
    let mut s = String::from("int vm_shift(int n)\n{\n");
    for i in 0..len {
        s.push_str(&format!("\tvoid *r{i};\n"));
    }
    s.push_str("\tstruct device_node *np = of_find_node_by_name(NULL, \"x\");\n");
    s.push_str("\twhile (n--) {\n");
    for i in 0..len - 1 {
        s.push_str(&format!("\t\tr{i} = r{};\n", i + 1));
    }
    s.push_str(&format!("\t\tr{} = kmalloc(8);\n\t}}\n", len - 1));
    s.push_str("\treturn 0;\n}\n");
    s
}

/// A unit holding a shift register of `len` locals and a small leaky
/// probe function; both leak their `np`.
fn shift_unit(len: usize) -> refminer::AuditReport {
    let src = format!(
        "{}\nint vm_probe(void)\n{{\n\tstruct device_node *np = of_find_node_by_name(NULL, \"y\");\n\
         \tif (!np)\n\t\treturn -ENODEV;\n\treturn 0;\n}}\n",
        shift_register(len)
    );
    audit(
        &Project::from_sources(vec![("drivers/vm/vm_shift.c".to_string(), src)]),
        &AuditConfig::default(),
    )
}

fn finding_functions(report: &refminer::AuditReport) -> Vec<&str> {
    report
        .findings
        .iter()
        .map(|f| f.function.as_str())
        .collect()
}

#[test]
fn exhausted_origins_budget_is_reported_and_withholds_the_functions_findings() {
    // Control: a short register converges and both leaks are found.
    let short = shift_unit(8);
    assert!(short.diagnostics.is_clean());
    assert_eq!(finding_functions(&short), vec!["vm_shift", "vm_probe"]);

    let report = shift_unit(150);
    let d = &report.diagnostics;
    assert_eq!((d.ok, d.degraded, d.skipped), (0, 1, 0));
    let unit = &d.units[0];
    assert_eq!(unit.outcome, UnitOutcome::Degraded);
    assert_eq!(unit.errors, vec![UnitErrorKind::AnalysisTruncated]);
    assert!(unit.detail.contains("`vm_shift`"), "{}", unit.detail);
    assert_eq!(d.by_kind()[&UnitErrorKind::AnalysisTruncated], 1);
    // The converged neighbour keeps its leak; the truncated function's
    // own leak of `np` is withheld.
    assert_eq!(finding_functions(&report), vec!["vm_probe"]);
}
