//! Variable-origin analysis: a forward may-analysis over the CFG that
//! tracks, for every program point, which call (or parameter) each
//! pointer variable may currently hold the result of.
//!
//! This is the light-weight stand-in for full def-use chains: the
//! refcounting checkers need to know "`np` was obtained from
//! `of_find_node_by_name`" at the point of a `put`/deref/escape, with
//! one level of copy propagation (`alias = np;`).
//!
//! Variable names and origins are interned once per function into
//! `u32` ids, each table sorted so that id order is name order and
//! [`Origin`] order. Every node's transfer is compiled once into
//! [`Op`]s, and every node's out-state is a sorted, deduplicated
//! `(var, origin)` vector. The fixpoint runs a FIFO worklist with an
//! in-queue bitmap; DESIGN.md ("Origins analysis") explains the visit
//! order and the budget.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

use crate::cfg::{Cfg, NodeId, NodeKind};
use crate::facts::{NodeFacts, StoreTarget};

/// Where a variable's current value may have come from.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// The return value of a direct call, with the originating node.
    Call {
        /// Callee name.
        name: String,
        /// Node where the call was assigned.
        node: NodeId,
    },
    /// A function parameter (never reassigned so far).
    Param,
    /// Anything else (literal, arithmetic, unparsed).
    Other,
}

/// One step of a node's compiled transfer function, over interned ids.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Strong update: the variable now holds exactly this origin.
    Gen(u32, u32),
    /// Copy propagation `dest = src`: `dest` now holds whatever `src`
    /// may hold, or [`Origin::Other`] when `src` holds nothing.
    Copy(u32, u32),
}

/// One function's transfer functions over interned ids.
struct Program {
    /// Variable names, sorted; a variable's id is its index.
    vars: Vec<String>,
    /// Every origin the function can produce, sorted; an origin's id is
    /// its index.
    origins: Vec<Origin>,
    /// The ops of node `i` are `ops[start[i]..start[i + 1]]`, in
    /// execution order.
    ops: Vec<Op>,
    start: Vec<usize>,
    /// The entry state: every named parameter holds [`Origin::Param`].
    seed: Vec<(u32, u32)>,
    /// The id of [`Origin::Other`].
    other: u32,
}

impl Program {
    fn compile(cfg: &Cfg, facts: &[NodeFacts], params: &[String]) -> Program {
        enum Named<'a> {
            Gen(&'a str, Origin),
            Copy(&'a str, &'a str),
        }
        let mut named: Vec<Named<'_>> = Vec::new();
        let mut start = Vec::with_capacity(cfg.nodes.len() + 1);
        for node in cfg.node_ids() {
            start.push(named.len());
            for a in &facts[node].assigns {
                let StoreTarget::Var(dest) = &a.target else {
                    continue;
                };
                named.push(match (&a.rhs_call, &a.rhs_root) {
                    (Some(call), _) => Named::Gen(
                        dest,
                        Origin::Call {
                            name: call.clone(),
                            node,
                        },
                    ),
                    (None, Some(src)) => Named::Copy(dest, src),
                    (None, None) => Named::Gen(dest, Origin::Other),
                });
            }
            // Macro loop heads bind their iterator argument to the loop
            // macro itself (the hidden find-like call). Which argument
            // is the iterator differs per macro
            // (`for_each_matching_node(dn, ids)` vs
            // `for_each_child_of_node(parent, child)`), so bind every
            // bare-identifier argument; the checkers narrow with their
            // smartloop knowledge base.
            if let NodeKind::MacroLoopHead { name, args } = &cfg.nodes[node].kind {
                for var in args.iter().filter_map(|arg| arg.as_ident()) {
                    let origin = Origin::Call {
                        name: name.clone(),
                        node,
                    };
                    named.push(Named::Gen(var, origin));
                }
            }
        }
        start.push(named.len());

        let mut vars: Vec<&str> = params.iter().map(String::as_str).collect();
        let mut origins = vec![Origin::Param, Origin::Other];
        for op in &named {
            match op {
                Named::Gen(var, origin) => {
                    vars.push(var);
                    origins.push(origin.clone());
                }
                Named::Copy(dest, src) => vars.extend([dest, src]),
            }
        }
        vars.sort_unstable();
        vars.dedup();
        origins.sort_unstable();
        origins.dedup();
        let var_id = |v: &str| vars.binary_search(&v).expect("every variable is interned") as u32;
        let origin_id =
            |o: &Origin| origins.binary_search(o).expect("every origin is interned") as u32;
        let ops = named
            .iter()
            .map(|op| match op {
                Named::Gen(var, origin) => Op::Gen(var_id(var), origin_id(origin)),
                Named::Copy(dest, src) => Op::Copy(var_id(dest), var_id(src)),
            })
            .collect();
        let param = origin_id(&Origin::Param);
        let mut seed: Vec<(u32, u32)> = params.iter().map(|p| (var_id(p), param)).collect();
        seed.sort_unstable();
        seed.dedup();
        Program {
            vars: vars.into_iter().map(str::to_string).collect(),
            other: origin_id(&Origin::Other),
            origins,
            ops,
            start,
            seed,
        }
    }

    /// Applies node `node`'s ops to `env` in place. `copied` is scratch
    /// space for copy propagation.
    fn transfer(&self, node: NodeId, env: &mut Vec<(u32, u32)>, copied: &mut Vec<u32>) {
        for &op in &self.ops[self.start[node]..self.start[node + 1]] {
            match op {
                Op::Gen(var, origin) => {
                    let r = var_range(env, var);
                    env.splice(r, [(var, origin)]);
                }
                Op::Copy(dest, src) => {
                    copied.clear();
                    copied.extend(env[var_range(env, src)].iter().map(|&(_, o)| o));
                    if copied.is_empty() {
                        copied.push(self.other);
                    }
                    let r = var_range(env, dest);
                    env.splice(r, copied.iter().map(|&o| (dest, o)));
                }
            }
        }
    }
}

/// The entries of `var` in a sorted `(var, origin)` state.
fn var_range(env: &[(u32, u32)], var: u32) -> Range<usize> {
    let lo = env.partition_point(|&(v, _)| v < var);
    let hi = lo + env[lo..].partition_point(|&(v, _)| v == var);
    lo..hi
}

/// Per-node origin environments (the state *after* the node executes).
#[derive(Debug, Clone)]
pub struct Origins {
    /// Interned variable names, sorted; ids index this table.
    vars: Vec<String>,
    /// Interned origins, sorted; ids index this table.
    origins: Vec<Origin>,
    /// Per node, the sorted, deduplicated `(var, origin)` id pairs.
    out: Vec<Vec<(u32, u32)>>,
    /// Whether the budget stopped the fixpoint before it converged.
    truncated: bool,
}

impl Origins {
    /// Runs the analysis to a fixpoint.
    ///
    /// `facts` must be parallel to `cfg.nodes`. `params` seeds the entry
    /// environment.
    pub fn compute(cfg: &Cfg, facts: &[NodeFacts], params: &[String]) -> Origins {
        let budget = cfg.nodes.len().saturating_mul(64).max(1024);
        Self::compute_with_budget(cfg, facts, params, budget)
    }

    /// [`Origins::compute`] with an explicit cap on node visits. A run
    /// that hits the cap keeps the partial state reached so far and
    /// reports [`Origins::truncated`].
    pub(crate) fn compute_with_budget(
        cfg: &Cfg,
        facts: &[NodeFacts],
        params: &[String],
        mut budget: usize,
    ) -> Origins {
        let prog = Program::compile(cfg, facts, params);
        let n = cfg.nodes.len();
        let mut out: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n];
        // Every node is evaluated at least once, in node order, so
        // unreachable code gets its own assignments too.
        let mut queue: VecDeque<NodeId> = cfg.node_ids().collect();
        let mut queued = vec![true; n];
        let mut env: Vec<(u32, u32)> = Vec::new();
        let mut copied: Vec<u32> = Vec::new();
        let mut truncated = false;
        while let Some(node) = queue.pop_front() {
            queued[node] = false;
            if budget == 0 {
                truncated = true;
                break;
            }
            budget -= 1;
            // In-state: union of predecessors' out-states (the entry
            // takes the parameter seed).
            env.clear();
            if node == cfg.entry {
                env.extend_from_slice(&prog.seed);
            } else {
                let preds = cfg.preds(node);
                for &(p, _) in preds {
                    env.extend_from_slice(&out[p]);
                }
                if preds.len() > 1 {
                    env.sort_unstable();
                    env.dedup();
                }
            }
            prog.transfer(node, &mut env, &mut copied);
            if env != out[node] {
                std::mem::swap(&mut out[node], &mut env);
                for &(s, _) in cfg.succs(node) {
                    if !queued[s] {
                        queued[s] = true;
                        queue.push_back(s);
                    }
                }
            }
        }
        Origins {
            vars: prog.vars,
            origins: prog.origins,
            out,
            truncated,
        }
    }

    /// Whether the fixpoint budget ran out before convergence. The
    /// partial state can then lack `Call` and `Param` origins the
    /// fixpoint has, and still hold a transient [`Origin::Other`].
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    fn var_id(&self, var: &str) -> Option<u32> {
        self.vars
            .binary_search_by(|v| v.as_str().cmp(var))
            .ok()
            .map(|i| i as u32)
    }

    /// The origin ids of `var` after node `n`.
    fn ids_after(&self, n: NodeId, var: Option<u32>) -> impl Iterator<Item = u32> + '_ {
        let env = &self.out[n];
        let entries = match var {
            Some(v) => &env[var_range(env, v)],
            None => &[],
        };
        entries.iter().map(|&(_, o)| o)
    }

    /// The origin ids of `var` flowing into node `n`: every
    /// predecessor's out-state, plus the entry's own seeded state. May
    /// repeat an id.
    fn ids_at<'a>(&'a self, cfg: &'a Cfg, n: NodeId, var: &str) -> impl Iterator<Item = u32> + 'a {
        let var = self.var_id(var);
        let entry = (n == cfg.entry).then_some(n);
        cfg.preds(n)
            .iter()
            .map(|&(p, _)| p)
            .chain(entry)
            .flat_map(move |p| self.ids_after(p, var))
    }

    /// The origins of `var` *after* node `n` executes (i.e. visible to
    /// its successors). For queries about the state at `n` itself, ask
    /// about a predecessor — or use [`Origins::at`], which unions the
    /// predecessors.
    pub fn after(&self, n: NodeId, var: &str) -> impl Iterator<Item = &Origin> {
        self.ids_after(n, self.var_id(var))
            .map(|o| &self.origins[o as usize])
    }

    /// The origins of `var` as seen *by* node `n` (union over preds).
    pub fn at<'a>(&'a self, cfg: &Cfg, n: NodeId, var: &str) -> BTreeSet<&'a Origin> {
        self.ids_at(cfg, n, var)
            .map(|o| &self.origins[o as usize])
            .collect()
    }

    /// Whether `var`, as seen by node `n`, may hold the result of a call
    /// to `callee`.
    pub fn var_from_call(&self, cfg: &Cfg, n: NodeId, var: &str, callee: &str) -> bool {
        self.ids_at(cfg, n, var).any(
            |o| matches!(&self.origins[o as usize], Origin::Call { name, .. } if name == callee),
        )
    }

    /// All call names `var` may originate from, as seen by node `n`:
    /// one per distinct originating call, in [`Origin`] order.
    pub fn call_origins(&self, cfg: &Cfg, n: NodeId, var: &str) -> Vec<String> {
        let mut ids: Vec<u32> = self.ids_at(cfg, n, var).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|o| match &self.origins[o as usize] {
                Origin::Call { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::NodeFacts;
    use refminer_cparse::parse_str;
    use std::collections::BTreeMap;

    type Env = BTreeMap<String, BTreeSet<Origin>>;

    fn setup(body: &str) -> (Cfg, Vec<NodeFacts>, Origins) {
        let src = format!(
            "int f(struct device *pdev) {{ struct device_node *np; struct device_node *alias; int ret; {body} }}"
        );
        let tu = parse_str("t.c", &src);
        let func = tu.function("f").unwrap();
        let cfg = Cfg::build(func);
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let origins = Origins::compute(&cfg, &facts, &["pdev".to_string()]);
        (cfg, facts, origins)
    }

    #[test]
    fn call_origin_tracked() {
        let (cfg, facts, origins) =
            setup("np = of_find_node_by_name(NULL, \"x\"); of_node_put(np); return 0;");
        // Find the put node.
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
    }

    #[test]
    fn copy_propagation() {
        let (cfg, facts, origins) = setup(
            "np = of_find_node_by_name(NULL, \"x\"); alias = np; of_node_put(alias); return 0;",
        );
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "alias", "of_find_node_by_name"));
    }

    #[test]
    fn strong_update_kills_origin() {
        let (cfg, facts, origins) =
            setup("np = of_find_node_by_name(NULL, \"x\"); np = NULL; of_node_put(np); return 0;");
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(!origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
    }

    #[test]
    fn merge_over_branches() {
        let (cfg, facts, origins) = setup(
            "if (ret) np = of_find_node_by_name(NULL, \"a\"); else np = of_get_parent(pdev); of_node_put(np); return 0;",
        );
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
        assert!(origins.var_from_call(&cfg, put, "np", "of_get_parent"));
        assert_eq!(
            origins.call_origins(&cfg, put, "np"),
            vec!["of_find_node_by_name", "of_get_parent"]
        );
    }

    #[test]
    fn params_are_params() {
        let (cfg, _facts, origins) = setup("return 0;");
        let at_exit = origins.at(&cfg, cfg.exit, "pdev");
        assert!(at_exit.iter().any(|o| matches!(o, Origin::Param)));
        assert!(origins.at(&cfg, cfg.exit, "nosuchvar").is_empty());
        assert!(!origins.truncated());
    }

    #[test]
    fn macro_loop_binds_iterator() {
        let (cfg, facts, origins) =
            setup("for_each_child_of_node(pdev, np) { of_node_put(np); } return 0;");
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "for_each_child_of_node"));
    }

    /// The specification executed literally: round-robin sweeps in node
    /// order over `BTreeMap` environments until a sweep changes
    /// nothing, with no budget.
    fn reference(cfg: &Cfg, facts: &[NodeFacts], params: &[String]) -> Vec<Env> {
        let mut out: Vec<Env> = vec![Env::new(); cfg.nodes.len()];
        loop {
            let mut changed = false;
            for node in cfg.node_ids() {
                let mut env = Env::new();
                if node == cfg.entry {
                    for p in params {
                        env.entry(p.clone()).or_default().insert(Origin::Param);
                    }
                } else {
                    for &(p, _) in cfg.preds(node) {
                        for (var, origins) in &out[p] {
                            env.entry(var.clone())
                                .or_default()
                                .extend(origins.iter().cloned());
                        }
                    }
                }
                for a in &facts[node].assigns {
                    let StoreTarget::Var(dest) = &a.target else {
                        continue;
                    };
                    let set = match (&a.rhs_call, &a.rhs_root) {
                        (Some(call), _) => BTreeSet::from([Origin::Call {
                            name: call.clone(),
                            node,
                        }]),
                        (None, Some(src)) => env
                            .get(src)
                            .cloned()
                            .unwrap_or_else(|| BTreeSet::from([Origin::Other])),
                        (None, None) => BTreeSet::from([Origin::Other]),
                    };
                    env.insert(dest.clone(), set);
                }
                if let NodeKind::MacroLoopHead { name, args } = &cfg.nodes[node].kind {
                    for var in args.iter().filter_map(|arg| arg.as_ident()) {
                        let call = Origin::Call {
                            name: name.clone(),
                            node,
                        };
                        env.insert(var.to_string(), BTreeSet::from([call]));
                    }
                }
                if env != out[node] {
                    out[node] = env;
                    changed = true;
                }
            }
            if !changed {
                return out;
            }
        }
    }

    /// The interned out-state of node `n`, decoded into the reference's
    /// representation.
    fn decoded(o: &Origins, n: NodeId) -> Env {
        let mut env = Env::new();
        for &(v, origin) in &o.out[n] {
            env.entry(o.vars[v as usize].clone())
                .or_default()
                .insert(o.origins[origin as usize].clone());
        }
        env
    }

    /// Checks every node of every function in `src` against the
    /// reference, and returns how many functions were compared.
    fn agrees_with_reference(path: &str, src: &str) -> usize {
        let tu = parse_str(path, src);
        let mut compared = 0;
        for func in tu.functions() {
            let cfg = Cfg::build(func);
            let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
            let params: Vec<String> = func.params.iter().filter_map(|p| p.name.clone()).collect();
            let fast = Origins::compute(&cfg, &facts, &params);
            assert!(!fast.truncated(), "{path}: {} truncated", func.name);
            let slow = reference(&cfg, &facts, &params);
            for n in cfg.node_ids() {
                assert_eq!(decoded(&fast, n), slow[n], "{path}: {} node {n}", func.name);
            }
            compared += 1;
        }
        compared
    }

    /// A ceval-shaped function: a `switch` dispatch loop over `arms`
    /// arms and `locals` pointer locals, every arm acquiring a node,
    /// jumping to its own error label and releasing on the way back.
    fn dispatch_source(arms: usize, locals: usize) -> String {
        let mut s = String::from("int vm_eval(struct vm_frame *f, int op)\n{\n");
        for l in 0..locals {
            s.push_str(&format!("\tstruct device_node *np{l} = NULL;\n"));
        }
        s.push_str("dispatch:\n\tswitch (op) {\n");
        for a in 0..arms {
            let var = format!("np{}", a % locals);
            s.push_str(&format!(
                "\tcase {a}:\n\t\t{var} = of_find_node_by_name(NULL, \"n{a}\");\n\
                 \t\tif (!{var})\n\t\t\treturn -ENODEV;\n\
                 \t\tif (f->flags & {})\n\t\t\tgoto fail{a};\n\
                 \t\tof_node_put({var});\n\t\top = vm_next(f);\n\t\tgoto dispatch;\n",
                1 << (a % 8)
            ));
        }
        s.push_str("\tdefault:\n\t\tbreak;\n\t}\n\treturn 0;\n");
        for a in 0..arms {
            s.push_str(&format!(
                "fail{a}:\n\tof_node_put(np{});\n\treturn -EINVAL;\n",
                a % locals
            ));
        }
        s.push_str("}\n");
        s
    }

    #[test]
    fn matches_reference_on_generated_trees() {
        for seed in 1..=3 {
            let tree = refminer_corpus::generate_tree(&refminer_corpus::TreeConfig {
                seed,
                ..Default::default()
            });
            let compared: usize = tree
                .files
                .iter()
                .map(|f| agrees_with_reference(&f.path, &f.content))
                .sum();
            assert!(compared > 100, "seed {seed}: only {compared} functions");
        }
    }

    #[test]
    fn matches_reference_on_a_dispatch_function() {
        let src = dispatch_source(30, 12);
        assert_eq!(agrees_with_reference("vm.c", &src), 1);
    }

    #[test]
    fn tiny_budget_reports_truncation() {
        let tu = parse_str("vm.c", &dispatch_source(4, 2));
        let func = tu.function("vm_eval").unwrap();
        let cfg = Cfg::build(func);
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let params = ["f".to_string(), "op".to_string()];
        let cut = Origins::compute_with_budget(&cfg, &facts, &params, 3);
        assert!(cut.truncated());
        let full = Origins::compute_with_budget(&cfg, &facts, &params, usize::MAX);
        assert!(!full.truncated());
    }
}
