//! The audit pipeline rebuilt from each layer crate's public entry
//! points, with a span around every call, for the traced runs.
//!
//! It does what `audit_with_cache` does for the default configuration
//! (both engines, no pattern or subsystem filter), but runs each layer
//! exactly once per unit and in layer-major order inside a unit, so
//! every layer gets one span per unit: lex, parse and discovery; the
//! knowledge-base merge; CFG, facts, origins, error paths, feasibility
//! and export extraction; the program-database build; each engine; and
//! the report filters. The real audit's call time minus the sum of
//! these self times is the work the real pipeline does beyond one pass
//! per layer (re-parses, rebuilt graphs, hashing and cache lookups).
//!
//! `parse_str_limited` lexes internally. The benchmark times the same
//! lex call on its own (`clex.lex`); the layer table moves that time
//! from `cparse` to `clex`.

use std::time::Instant;

use refminer::checkers::{
    dedup_findings, default_checkers, merge_duplicate_findings, sort_findings_canonical,
    AnalysisEngine, CheckCtx, Feasibility, ProgramDb, TemplateEngine, UnitExports,
};
use refminer::clex::{scan_defines, LexOptions, Lexer, MacroDef};
use refminer::cparse::{parse_str_limited, ParseLimits, TranslationUnit};
use refminer::cpg::{error_nodes, Cfg, FeasAnalysis, FunctionGraph, NodeFacts, Origins};
use refminer::rcapi::{discover_unit, merge_discoveries, ApiKb, DiscoverConfig, UnitDiscovery};
use refminer::{AuditConfig, DeltaEngine, EngineSet, Finding, SourceUnit, TraceHandle};

use crate::spans::Tracer;

/// One unit's products, kept so an incremental pass redoes only the
/// units that changed.
#[derive(Default)]
struct UnitState {
    tu: Option<TranslationUnit>,
    defines: Vec<MacroDef>,
    discovery: UnitDiscovery,
    graphs: Vec<FunctionGraph>,
    exports: UnitExports,
    findings: Vec<Finding>,
}

/// The layer-by-layer pipeline and its per-unit state.
pub struct Mirror {
    config: AuditConfig,
    builtin: ApiKb,
    kb: ApiKb,
    program: ProgramDb,
    template: TemplateEngine,
    delta: DeltaEngine,
    units: Vec<UnitState>,
}

/// Runs `f`, adding its wall time to `acc` when `timed`.
fn timed<T>(timed: bool, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !timed {
        return f();
    }
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

impl Mirror {
    /// A pipeline for `config`, which must use the default engine set
    /// and no pattern or subsystem filter.
    pub fn new(config: &AuditConfig) -> Mirror {
        assert!(
            config.engines == EngineSet::default()
                && config.only_patterns.is_none()
                && config.subsystem.is_none(),
            "the layer pipeline mirrors the default audit configuration only"
        );
        Mirror {
            config: config.clone(),
            builtin: ApiKb::builtin(),
            kb: ApiKb::builtin(),
            program: ProgramDb::default(),
            template: TemplateEngine::new(default_checkers()),
            delta: DeltaEngine::new(),
            units: Vec::new(),
        }
    }

    /// Runs every layer over every unit and returns the report's
    /// findings.
    pub fn run(&mut self, units: &[SourceUnit], t: &Tracer) -> Vec<Finding> {
        self.units = (0..units.len()).map(|_| UnitState::default()).collect();
        let all: Vec<usize> = (0..units.len()).collect();
        self.update(units, &all, t)
    }

    /// Re-runs the per-unit layers for the `changed` unit indices and
    /// the tree-wide merges over all units; returns the report's
    /// findings. `units` must list the same paths as the last
    /// [`Mirror::run`].
    pub fn update(&mut self, units: &[SourceUnit], changed: &[usize], t: &Tracer) -> Vec<Finding> {
        assert_eq!(units.len(), self.units.len(), "unit set changed");
        for &i in changed {
            self.units[i] = self.parse(&units[i], t);
        }
        {
            let _s = t.span("rcapi.merge");
            self.kb = if self.config.discover_apis {
                let discs: Vec<&UnitDiscovery> = self.units.iter().map(|u| &u.discovery).collect();
                let defines: Vec<MacroDef> = self
                    .units
                    .iter()
                    .flat_map(|u| u.defines.iter().cloned())
                    .collect();
                let config = DiscoverConfig {
                    nesting_threshold: self.config.nesting_threshold,
                };
                merge_discoveries(&discs, &defines, &self.builtin, &config)
                    .into_kb(self.builtin.clone())
            } else {
                self.builtin.clone()
            };
        }
        for &i in changed {
            self.graph(&units[i].path, i, t);
        }
        {
            let _s = t.span("progdb.build");
            let exports: Vec<&UnitExports> = self.units.iter().map(|u| &u.exports).collect();
            self.program = ProgramDb::build(&exports, &self.kb, self.config.whole_program);
        }
        for &i in changed {
            self.check(i, t);
        }
        let _s = t.span("checkers.report");
        let mut findings: Vec<Finding> = self
            .units
            .iter()
            .flat_map(|u| u.findings.iter().cloned())
            .collect();
        sort_findings_canonical(&mut findings);
        if self.config.feasibility {
            findings.retain(|f| f.feasibility != Feasibility::Infeasible);
        }
        merge_duplicate_findings(&mut findings);
        findings
    }

    /// Lex, parse and per-unit discovery.
    fn parse(&self, unit: &SourceUnit, t: &Tracer) -> UnitState {
        let limits = &self.config.limits;
        if unit.text.len() > limits.max_file_bytes {
            return UnitState {
                exports: UnitExports {
                    path: unit.path.clone(),
                    fns: Vec::new(),
                },
                ..UnitState::default()
            };
        }
        let defines = {
            let _s = t.span("clex.defines");
            scan_defines(&unit.text)
        };
        {
            let _s = t.span("clex.lex");
            let opts = LexOptions {
                keep_comments: false,
                keep_preprocessor: false,
            };
            let (tokens, _, _) =
                Lexer::with_options(&unit.text, opts).tokenize_limited(limits.max_tokens);
            t.add("clex.tokens", tokens.len() as f64);
        }
        let out = {
            let _s = t.span("cparse.parse");
            let parse_limits = ParseLimits {
                max_tokens: limits.max_tokens,
                max_depth: limits.max_parse_depth,
            };
            parse_str_limited(&unit.path, &unit.text, &parse_limits)
        };
        t.add("cparse.functions", out.unit.functions().count() as f64);
        t.add("cparse.parse_errors", out.errors.len() as f64);
        let discovery = {
            let _s = t.span("rcapi.discover");
            discover_unit(&out.unit, &self.builtin)
        };
        UnitState {
            tu: Some(out.unit),
            defines,
            discovery,
            ..UnitState::default()
        }
    }

    /// Graph building, analysis by analysis, then export extraction.
    fn graph(&mut self, path: &str, i: usize, t: &Tracer) {
        let state = &mut self.units[i];
        state.graphs.clear();
        state.exports = UnitExports {
            path: path.to_string(),
            fns: Vec::new(),
        };
        let Some(tu) = state.tu.as_ref() else {
            return;
        };
        let on = t.enabled();
        let max_nodes = self.config.limits.max_graph_nodes;
        let funcs: Vec<_> = tu.functions().collect();
        let mut fn_secs = vec![0.0; funcs.len()];
        let _graph = t.span("cpg.graph");
        let cfgs: Vec<Cfg> = {
            let _s = t.span("cpg.cfg");
            funcs
                .iter()
                .zip(fn_secs.iter_mut())
                .map(|(f, acc)| timed(on, acc, || Cfg::build(f)))
                .collect()
        };
        // Functions over the node cap get no further analysis, as in
        // `FunctionGraph::try_build`.
        let kept: Vec<usize> = (0..cfgs.len())
            .filter(|&k| cfgs[k].nodes.len() <= max_nodes)
            .collect();
        t.add("cpg.capped_fns", (cfgs.len() - kept.len()) as f64);
        t.add(
            "cpg.cfg_nodes",
            cfgs.iter().map(|c| c.nodes.len()).sum::<usize>() as f64,
        );
        let facts: Vec<Vec<NodeFacts>> = {
            let _s = t.span("cpg.facts");
            kept.iter()
                .map(|&k| {
                    timed(on, &mut fn_secs[k], || {
                        cfgs[k].nodes.iter().map(NodeFacts::of).collect()
                    })
                })
                .collect()
        };
        let origins: Vec<Origins> = {
            let _s = t.span("cpg.origins");
            kept.iter()
                .zip(&facts)
                .map(|(&k, facts)| {
                    let params: Vec<String> = funcs[k]
                        .params
                        .iter()
                        .filter_map(|p| p.name.clone())
                        .collect();
                    timed(on, &mut fn_secs[k], || {
                        Origins::compute(&cfgs[k], facts, &params)
                    })
                })
                .collect()
        };
        let errors: Vec<_> = {
            let _s = t.span("cpg.errorpath");
            kept.iter()
                .zip(&facts)
                .map(|(&k, facts)| timed(on, &mut fn_secs[k], || error_nodes(&cfgs[k], facts)))
                .collect()
        };
        let feas: Vec<FeasAnalysis> = {
            let _s = t.span("cpg.feasibility");
            kept.iter()
                .zip(&facts)
                .map(|(&k, facts)| {
                    timed(on, &mut fn_secs[k], || {
                        FeasAnalysis::compute(&cfgs[k], facts)
                    })
                })
                .collect()
        };
        t.max(
            "cpg.slowest_fn_s",
            fn_secs.iter().copied().fold(0.0, f64::max),
        );
        let mut cfgs: Vec<Option<Cfg>> = cfgs.into_iter().map(Some).collect();
        state.graphs = kept
            .iter()
            .zip(facts)
            .zip(origins)
            .zip(errors)
            .zip(feas)
            .map(
                |((((&k, facts), origins), error_nodes), feas)| FunctionGraph {
                    func: funcs[k].clone(),
                    cfg: cfgs[k].take().expect("each kept CFG is used once"),
                    facts,
                    origins,
                    error_nodes,
                    feas,
                },
            )
            .collect();
        drop(_graph);
        let _s = t.span("progdb.extract");
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        state.exports = UnitExports::extract(path, &state.graphs, &globals);
    }

    /// Both engines over the unit's graphs, then the unit-level dedup,
    /// in the order `run_engines_traced` produces.
    fn check(&mut self, i: usize, t: &Tracer) {
        let state = &self.units[i];
        let Some(tu) = state.tu.as_ref() else {
            self.units[i].findings.clear();
            return;
        };
        let trace = TraceHandle::disabled();
        let run = |engine: &dyn AnalysisEngine| -> Vec<Vec<Finding>> {
            state
                .graphs
                .iter()
                .map(|graph| {
                    let ctx = CheckCtx {
                        file: &tu.path,
                        graph,
                        kb: &self.kb,
                        unit: tu,
                        all_graphs: &state.graphs,
                        program: &self.program,
                        trace: trace.clone(),
                    };
                    let mut found = engine.analyze(&ctx);
                    for f in &mut found {
                        f.add_engine(engine.id());
                    }
                    found
                })
                .collect()
        };
        let by_template = {
            let _s = t.span("checkers.template");
            run(&self.template)
        };
        let by_delta = {
            let _s = t.span("delta.engine");
            run(&self.delta)
        };
        t.add(
            "checkers.findings",
            by_template.iter().map(Vec::len).sum::<usize>() as f64,
        );
        t.add(
            "delta.findings",
            by_delta.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let _s = t.span("checkers.dedup");
        let mut out: Vec<Finding> = Vec::new();
        for (a, b) in by_template.into_iter().zip(by_delta) {
            out.extend(a);
            out.extend(b);
        }
        dedup_findings(&mut out);
        self.units[i].findings = out;
    }
}
