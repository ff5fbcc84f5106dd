//! Convergence telemetry contract: with observability enabled, every
//! solver records one trace per solve whose residual list is exactly as
//! long as the iteration count it reports — so a convergence curve read
//! out of `qrank obs-dump` is the solve that actually happened, not an
//! approximation of it.
//!
//! Each solve uses a distinct node count; traces are matched back by
//! `(solver, nodes)` so the process-global trace store needs no
//! isolation.

use qrank_graph::generators::barabasi_albert;
use qrank_graph::CsrGraph;
use qrank_obs as obs;
use qrank_rank::{gauss_seidel, pagerank, solve_auto, PageRankConfig, PageRankResult};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph(n: usize) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(n as u64);
    barabasi_albert(n, 4, &mut rng)
}

/// Both tests toggle the process-global enabled flag; serialize them.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn assert_trace_matches(solver: &str, nodes: usize, result: &PageRankResult) {
    let traces = obs::convergence::traces();
    let trace = traces
        .iter()
        .find(|t| t.solver == solver && t.nodes == nodes)
        .unwrap_or_else(|| panic!("no trace recorded for {solver} on {nodes} nodes"));
    assert_eq!(
        trace.iterations, result.iterations,
        "{solver}: trace iteration count disagrees with the result"
    );
    assert_eq!(
        trace.residuals.len(),
        trace.iterations,
        "{solver}: one residual per iteration"
    );
    assert_eq!(
        trace.residuals, result.residuals,
        "{solver}: trace must be the solve that happened"
    );
    assert_eq!(trace.converged, result.converged);
}

#[test]
fn every_solver_records_one_residual_per_iteration() {
    let _serial = serial();
    obs::set_enabled(true);
    let cfg = PageRankConfig::default();

    let power = pagerank(&graph(311), &cfg);
    assert_trace_matches("power", 311, &power);

    let gs = gauss_seidel(&graph(312), &cfg);
    assert_trace_matches("gauss_seidel", 312, &gs);

    // solve_auto is sequential Gauss–Seidel and records under its name.
    let auto = solve_auto(&graph(315), &cfg, None);
    assert_trace_matches("gauss_seidel", 315, &auto);
    obs::set_enabled(false);
}

#[test]
fn disabled_observability_records_nothing_and_changes_nothing() {
    let _serial = serial();
    obs::set_enabled(false);
    let cfg = PageRankConfig::default();
    let off = pagerank(&graph(441), &cfg);
    assert!(obs::convergence::traces().iter().all(|t| t.nodes != 441));
    obs::set_enabled(true);
    let on = pagerank(&graph(441), &cfg);
    obs::set_enabled(false);
    assert_eq!(
        off.scores, on.scores,
        "instrumentation must not perturb a single bit of the solve"
    );
    assert_eq!(off.iterations, on.iterations);
}
