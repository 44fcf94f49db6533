//! Observability acceptance tests: span-tree coverage of a full
//! verification run, the golden metric set with its Prometheus
//! exposition, and exact agreement between the metrics registry and the
//! [`Verification`] statistics.
//!
//! Every test here asserts exact metric values, so each opens an
//! exclusive window with [`trace::metrics_test_guard`]; the registry is
//! process-global, which is also why these tests live in their own
//! binary rather than alongside unrelated integration tests.

use rob_verify::trace::{self, MetricKind};
use rob_verify::{BugSpec, Config, Operand, Strategy, Verdict, Verifier};

/// The golden pipeline metric set: every one of these counters must be
/// registered after a single full run with the default strategy. Names
/// are part of the exposition contract — renaming one is a breaking
/// change for downstream scrapes.
const GOLDEN_COUNTERS: &[&str] = &[
    "eufm.nodes.cache_hits",
    "eufm.nodes.interned",
    "evc.pe.eij_vars",
    "evc.pe.gterms",
    "evc.pe.pterms",
    "evc.rewrite.obligations",
    "evc.rewrite.retire_pairs",
    "evc.rewrite.syntactic",
    "sat.cdcl.conflicts",
    "sat.cdcl.decisions",
    "sat.cdcl.propagations",
    "sat.tseitin.clauses",
    "sat.tseitin.vars",
    "tlsim.sim.events",
];

/// Per-rule deletion counters register lazily, only when their rule
/// fires; any that appear must come from this set.
const RULE_COUNTERS: &[&str] = &[
    "evc.rewrite.rule.r1",
    "evc.rewrite.rule.r2",
    "evc.rewrite.rule.r3",
    "evc.rewrite.rule.r4",
    "evc.rewrite.rule.r5",
];

fn counter(name: &str) -> u64 {
    trace::snapshot()
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("metric {name} not registered"))
        .value
}

/// Fig. 2's 3-entry, width-2 processor — the paper's running example.
fn fig2_config() -> Config {
    Config::new(3, 2).expect("config")
}

#[test]
fn golden_metric_set_and_prometheus_exposition() {
    let _guard = trace::metrics_test_guard();
    let v = Verifier::new(fig2_config()).run().expect("run");
    assert_eq!(v.verdict, Verdict::Verified);

    let samples = trace::snapshot();
    let names: Vec<&str> = samples.iter().map(|s| s.name).collect();
    for expected in GOLDEN_COUNTERS {
        assert!(names.contains(expected), "missing metric {expected}");
    }
    for sample in &samples {
        assert!(
            sample
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
            "metric name breaks the naming discipline: {}",
            sample.name
        );
        if sample.name.starts_with("evc.rewrite.rule.") {
            assert!(
                RULE_COUNTERS.contains(&sample.name),
                "unknown rule counter {}",
                sample.name
            );
        }
    }
    // The snapshot is sorted by name — the exposition order contract.
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);

    // Prometheus text format: `rob_` prefix, dots to underscores,
    // `_total` suffix on counters, one `# TYPE` line per metric.
    assert_eq!(
        trace::prometheus_name("evc.pe.eij_vars", MetricKind::Counter),
        "rob_evc_pe_eij_vars_total"
    );
    assert_eq!(
        trace::prometheus_name("serve.cache.entries", MetricKind::Gauge),
        "rob_serve_cache_entries"
    );
    let text = trace::prometheus();
    assert!(text.contains("# TYPE rob_evc_pe_eij_vars_total counter"));
    assert!(text.contains(&format!(
        "rob_evc_pe_eij_vars_total {}\n",
        counter("evc.pe.eij_vars")
    )));
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("name");
            let kind = parts.next().expect("kind");
            assert!(name.starts_with("rob_"), "{line}");
            assert!(kind == "counter" || kind == "gauge", "{line}");
            if kind == "counter" {
                assert!(name.ends_with("_total"), "{line}");
            }
        } else {
            let mut parts = line.split(' ');
            let name = parts.next().expect("name");
            let value = parts.next().expect("value");
            assert!(name.starts_with("rob_"), "{line}");
            assert!(value.parse::<u64>().is_ok(), "{line}");
        }
    }
}

#[test]
fn counters_agree_with_verification_stats_on_fig2() {
    let _guard = trace::metrics_test_guard();
    let v = Verifier::new(fig2_config()).run().expect("run");
    assert_eq!(v.verdict, Verdict::Verified);

    assert_eq!(counter("evc.pe.eij_vars"), v.stats.eij_vars as u64);
    assert_eq!(counter("sat.tseitin.vars"), v.stats.cnf_vars as u64);
    assert_eq!(counter("sat.tseitin.clauses"), v.stats.cnf_clauses as u64);
    assert_eq!(counter("sat.cdcl.conflicts"), v.stats.sat_conflicts);
    assert_eq!(counter("sat.cdcl.decisions"), v.stats.sat_decisions);
    assert_eq!(counter("sat.cdcl.propagations"), v.stats.sat_propagations);
    assert_eq!(
        counter("evc.rewrite.obligations"),
        v.stats.rewrite_obligations as u64
    );
    assert_eq!(
        counter("evc.rewrite.syntactic"),
        v.stats.rewrite_syntactic as u64
    );
    assert_eq!(
        counter("evc.rewrite.retire_pairs"),
        v.stats.retire_pairs as u64
    );
    // The rewriting rules fired: their per-rule deletion counters sum to
    // at least the merged retire pairs.
    let rule_total: u64 = RULE_COUNTERS
        .iter()
        .map(|name| {
            trace::snapshot()
                .iter()
                .find(|s| s.name == *name)
                .map_or(0, |s| s.value)
        })
        .sum();
    assert!(rule_total > 0, "no rewrite rule fired on Fig. 2");
}

#[test]
fn counters_agree_with_verification_stats_on_seeded_bug() {
    let _guard = trace::metrics_test_guard();
    let v = Verifier::new(Config::new(4, 2).expect("config"))
        .strategy(Strategy::PositiveEqualityOnly)
        .bug(BugSpec::ForwardingIgnoresValidResult {
            slice: 2,
            operand: Operand::Src2,
        })
        .run()
        .expect("run");
    assert!(v.verdict.is_falsification(), "{:?}", v.verdict);

    assert_eq!(counter("evc.pe.eij_vars"), v.stats.eij_vars as u64);
    assert_eq!(counter("sat.tseitin.vars"), v.stats.cnf_vars as u64);
    assert_eq!(counter("sat.tseitin.clauses"), v.stats.cnf_clauses as u64);
    assert_eq!(counter("sat.cdcl.conflicts"), v.stats.sat_conflicts);
    assert_eq!(counter("sat.cdcl.decisions"), v.stats.sat_decisions);
    assert_eq!(counter("sat.cdcl.propagations"), v.stats.sat_propagations);
    // PE-only never rewrites. The obligation counter registers on first
    // use, so on a lone run of this test it is absent: read that as 0.
    let obligations = trace::snapshot()
        .iter()
        .find(|s| s.name == "evc.rewrite.obligations")
        .map_or(0, |s| s.value);
    assert_eq!(obligations, 0);
}

/// Satellite of the memoization PR: a warm (fully memoized) run must not
/// re-count pipeline work into the process-global counters. The
/// `Verification` statistics it *reports* are byte-identical to the cold
/// run's — that equivalence is pinned in `tests/memoization.rs` — but the
/// counters measure work actually performed, and a memoized discharge
/// performed none.
#[test]
fn memoized_run_does_not_recount_pipeline_work() {
    let _guard = trace::metrics_test_guard();
    let store = rob_verify::memo_handle();
    // Cold run populates the store. Auditing is off because the audit's
    // deliverables are not in the memo record, so auditing disables the
    // main-solve memo.
    let cold = Verifier::new(fig2_config())
        .audit(false)
        .memo(store.clone())
        .run()
        .expect("cold run");
    assert_eq!(cold.verdict, Verdict::Verified);

    // Counters that measure SAT/PE pipeline work: a fully warm run skips
    // all of it, so these must not move at all.
    const PIPELINE: &[&str] = &[
        "evc.pe.eij_vars",
        "evc.pe.gterms",
        "evc.pe.pterms",
        "sat.cdcl.conflicts",
        "sat.cdcl.decisions",
        "sat.cdcl.propagations",
        "sat.tseitin.clauses",
        "sat.tseitin.vars",
    ];
    let before: Vec<u64> = PIPELINE.iter().map(|n| counter(n)).collect();
    let obligations_before = counter("evc.rewrite.obligations");
    let syntactic_before = counter("evc.rewrite.syntactic");
    let hits_before = trace::snapshot()
        .iter()
        .find(|s| s.name == "memo.hits")
        .map_or(0, |s| s.value);

    let warm = Verifier::new(fig2_config())
        .audit(false)
        .memo(store)
        .run()
        .expect("warm run");
    assert_eq!(warm.verdict, cold.verdict);
    assert_eq!(warm.stats, cold.stats);

    for (name, &b) in PIPELINE.iter().zip(&before) {
        assert_eq!(counter(name), b, "memoized run re-counted {name}");
    }
    // Syntactic discharges are real (cheap) work repeated every run and
    // still count; memoized discharges must not. On a fully warm run the
    // obligation counter therefore moves by exactly the syntactic count.
    let syntactic_delta = counter("evc.rewrite.syntactic") - syntactic_before;
    assert_eq!(
        counter("evc.rewrite.obligations") - obligations_before,
        syntactic_delta,
        "memoized discharges leaked into evc.rewrite.obligations"
    );
    assert!(
        counter("memo.hits") > hits_before,
        "warm run reported no memo hits"
    );
}

#[test]
fn span_tree_covers_pipeline_phases_and_telescopes() {
    // Spans are thread-local, but this run also feeds the process-global
    // counters; holding the guard keeps it out of the exact-value
    // windows of the sibling tests.
    let _guard = trace::metrics_test_guard();
    let (v, tree) = Verifier::new(fig2_config())
        .run_traced()
        .expect("traced run");
    assert_eq!(v.verdict, Verdict::Verified);
    tree.well_formed().expect("well-formed span tree");

    // One root — the whole run — whose cumulative time is the traced
    // total, with at least six distinct named phases beneath it.
    let roots = tree.roots();
    assert_eq!(roots.len(), 1);
    assert_eq!(tree.nodes[roots[0]].name, "verify");
    assert_eq!(tree.nodes[roots[0]].cumulative, tree.total());
    let names = tree.names();
    for expected in [
        "verify",
        "generate",
        "tlsim.step",
        "evc.rewrite",
        "evc.mem",
        "evc.polarity",
        "evc.uf_elim",
        "evc.pe",
        "evc.chain",
        "sat.tseitin",
        "sat.cdcl",
    ] {
        assert!(names.contains(&expected), "missing phase {expected}");
    }
    assert!(names.len() >= 6);

    // Self times partition the wall time exactly: no clamping, no gaps.
    let rollup = tree.rollup();
    let self_sum: std::time::Duration = rollup.iter().map(|p| p.self_time).sum();
    assert_eq!(self_sum, tree.total());
    let cumulative = rollup
        .iter()
        .find(|p| p.name == "verify")
        .expect("verify phase")
        .cumulative;
    assert_eq!(cumulative, tree.total());

    // The flamegraph report names every phase with a percentage column.
    let report = tree.flamegraph();
    assert!(report.contains("verify"), "{report}");
    assert!(report.contains('%'), "{report}");
}
