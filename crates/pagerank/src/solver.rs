//! The one PageRank entry point for trajectory columns.
//!
//! The pipeline in `qrank-core`, the stage engine and the refresh
//! engine in `qrank-serve` call [`solve_auto`], which is sequential
//! in-place Gauss–Seidel ([`crate::gauss_seidel_warm`]) at every graph
//! size and thread budget. Its output bits depend only on the graph, the
//! config and the warm vector — never on how many threads the process
//! has. Threaded sweeps (multi-color Gauss–Seidel over a degree-ordered
//! relabeling) were measured slower than this sweep on a 2-vCPU host and
//! were removed; see DESIGN.md.
//!
//! The process-wide thread budget ([`set_thread_budget`],
//! [`thread_budget`]) lives here for the stages that do run threads (the
//! snapshot alignment in `qrank-graph`); the solve ignores it.

use std::sync::atomic::{AtomicUsize, Ordering};

use qrank_graph::CsrGraph;

use crate::gauss_seidel::gauss_seidel_warm;
use crate::power::PageRankResult;
use crate::PageRankConfig;

/// 0 = "auto" (use available parallelism).
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Pin the global thread budget (0 restores auto-detection).
///
/// Affects every subsequent [`thread_budget`] call in the process —
/// intended for benchmarks and services that reserve cores. Scores are
/// unaffected: [`solve_auto`] is sequential at any budget.
pub fn set_thread_budget(threads: usize) {
    THREAD_BUDGET.store(threads, Ordering::Relaxed);
}

/// The thread budget: the last [`set_thread_budget`] value, else the
/// `QRANK_THREADS` environment variable, else available parallelism.
pub fn thread_budget() -> usize {
    let pinned = THREAD_BUDGET.load(Ordering::Relaxed);
    if pinned > 0 {
        return pinned;
    }
    if let Some(t) = std::env::var("QRANK_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t > 0)
    {
        return t;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Solve PageRank by sequential Gauss–Seidel, optionally warm-started,
/// inside the `rank.solve_auto` span.
///
/// Deterministic: the same graph, config and warm vector give the same
/// bits at any [`thread_budget`].
pub fn solve_auto(g: &CsrGraph, config: &PageRankConfig, warm: Option<&[f64]>) -> PageRankResult {
    let _span = qrank_obs::span!("rank.solve_auto");
    gauss_seidel_warm(g, config, warm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_graph::generators::barabasi_albert;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn budget_pinning_round_trips() {
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        set_thread_budget(0);
        assert!(thread_budget() >= 1);
    }

    #[test]
    fn warm_auto_converges_to_cold_auto() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = barabasi_albert(400, 4, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let cold = solve_auto(&g, &cfg, None);
        let warm = solve_auto(&g, &cfg, Some(&cold.scores));
        for (a, b) in cold.scores.iter().zip(&warm.scores) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
