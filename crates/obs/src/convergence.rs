//! Solver convergence telemetry.
//!
//! Every PageRank solve (power iteration, and Gauss–Seidel, which
//! `solve_auto` runs) reports its per-iteration residuals here, turning
//! convergence curves into first-class data: `qrank obs-dump` and the
//! bench binaries embed them, and `qrank pagerank --trace` writes them
//! out directly.
//!
//! The store is bounded ([`MAX_TRACES`], newest kept) and gated on
//! [`crate::enabled`]: with observability off the residual vector is
//! never cloned and no lock is taken. Recording also bumps two global
//! counters per solve — `rank.solve.<solver>` and
//! `rank.iterations.<solver>` — so cheap aggregates survive even after
//! a trace falls out of the ring.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Maximum retained traces; older solves fall off the front.
pub const MAX_TRACES: usize = 64;

/// One solver run's convergence record.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Which solver produced the trace: `"power"` or `"gauss_seidel"`.
    pub solver: &'static str,
    /// Node count of the solved graph (useful for matching traces to
    /// solves in tests and dumps).
    pub nodes: usize,
    /// Iterations the solver reported.
    pub iterations: usize,
    /// Whether the solver hit its tolerance.
    pub converged: bool,
    /// One residual per iteration, in order.
    pub residuals: Vec<f64>,
}

static TRACES: Mutex<VecDeque<ConvergenceTrace>> = Mutex::new(VecDeque::new());

/// Record one solve. No-op (and no clone of `residuals`) when
/// observability is disabled.
pub fn record_solve(
    solver: &'static str,
    nodes: usize,
    iterations: usize,
    converged: bool,
    residuals: &[f64],
) {
    if !crate::enabled() {
        return;
    }
    let registry = crate::global();
    registry.counter(&format!("rank.solve.{solver}")).inc();
    registry
        .counter(&format!("rank.iterations.{solver}"))
        .add(iterations as u64);
    let trace = ConvergenceTrace {
        solver,
        nodes,
        iterations,
        converged,
        residuals: residuals.to_vec(),
    };
    let mut traces = TRACES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if traces.len() == MAX_TRACES {
        traces.pop_front();
    }
    traces.push_back(trace);
}

/// Copy out the retained traces, oldest first.
pub fn traces() -> Vec<ConvergenceTrace> {
    TRACES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

/// Drop every retained trace.
pub fn clear() {
    TRACES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
}

/// Render the retained traces as a JSON array, oldest first.
pub fn to_json() -> String {
    use crate::json::{array, num, Obj};
    array(traces().into_iter().map(|t| {
        Obj::new()
            .str("solver", t.solver)
            .int("nodes", t.nodes as u64)
            .int("iterations", t.iterations as u64)
            .bool("converged", t.converged)
            .raw("residuals", &array(t.residuals.iter().map(|&r| num(r))))
            .finish()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_only_when_enabled_and_bumps_counters() {
        let _serial = crate::test_lock();
        crate::set_enabled(false);
        clear();
        record_solve("t_solver", 10, 3, true, &[0.3, 0.1, 0.01]);
        assert!(traces().is_empty());

        crate::set_enabled(true);
        crate::reset();
        record_solve("t_solver", 10, 3, true, &[0.3, 0.1, 0.01]);
        let ts = traces();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].iterations, 3);
        assert_eq!(ts[0].residuals.len(), ts[0].iterations);
        let snap = crate::global().snapshot();
        assert_eq!(snap.counter("rank.solve.t_solver"), Some(1));
        assert_eq!(snap.counter("rank.iterations.t_solver"), Some(3));
        crate::set_enabled(false);
        clear();
    }

    #[test]
    fn json_carries_residuals() {
        let _serial = crate::test_lock();
        crate::set_enabled(true);
        clear();
        record_solve("t_json", 5, 2, false, &[0.5, 0.25]);
        let json = to_json();
        assert!(json.contains(r#""solver":"t_json""#));
        assert!(json.contains(r#""residuals":[0.5,0.25]"#));
        crate::set_enabled(false);
        clear();
    }
}
