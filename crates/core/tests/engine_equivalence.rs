//! House invariants of the stage engine:
//!
//! * for **every** window shape — append, window slide, common-set
//!   change — a warm [`PipelineEngine`]'s report is *bitwise* identical
//!   to a cold `run_pipeline_with` on the same series. Both paths solve
//!   through `qrank_rank::solve_auto`, so this also proves cache reuse
//!   never leaks a value a cold solve would not have produced;
//! * every report is the same bytes at thread budgets 1, 2 and 8,
//!   including on a 100k-page common set, the size at which the solver
//!   used to switch to a threaded sweep.
//!
//! The thread budget is process-global state, so the whole matrix lives
//! in one `#[test]` (parallel test threads would race on it).

use qrank_core::{
    run_pipeline_with, PaperEstimator, PipelineEngine, PipelineReport, PopularityMetric,
};
use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};

/// Deterministic evolving corpus. Pages 0..40 always exist; page 40 is
/// born at t = 3 and page 41 at t = 5, so sliding windows across those
/// times change the common page set. Edges churn with `t` via an LCG.
fn master_snapshot(t: u64) -> Snapshot {
    let n: u64 = 40 + u64::from(t >= 3) + u64::from(t >= 5);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // a stable backbone so the graph never falls apart
    for u in 0..n as u32 {
        edges.push((u, (u + 1) % n as u32));
    }
    // churning extra links, deterministic in t
    let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t + 1);
    for _ in 0..120 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 33) % n) as u32;
        let v = ((state >> 13) % n) as u32;
        if u != v {
            edges.push((u, v));
        }
    }
    let pages: Vec<PageId> = (0..n).map(PageId).collect();
    Snapshot::new(t as f64, CsrGraph::from_edges(n as usize, &edges), pages).unwrap()
}

fn window(lo: u64, hi: u64) -> SnapshotSeries {
    let mut s = SnapshotSeries::new();
    for t in lo..hi {
        s.push(master_snapshot(t)).unwrap();
    }
    s
}

/// Pages in [`large_series`]: the graph size at which solver dispatch
/// used to pick the threaded colored sweep at two or more threads.
const LARGE_PAGES: u32 = 100_000;

/// Three snapshots of one `LARGE_PAGES`-page web, so the common set is
/// every page. Sparse on purpose (a ring plus one churning link per two
/// pages) to keep the debug-build solves cheap.
fn large_series() -> SnapshotSeries {
    let n = LARGE_PAGES;
    let pages: Vec<PageId> = (0..u64::from(n)).map(PageId).collect();
    let mut s = SnapshotSeries::new();
    for t in 0..3u64 {
        let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let mut state = 0xD1B5_4A32_D192_ED03u64.wrapping_mul(t + 1);
        for _ in 0..n / 2 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = ((state >> 33) % u64::from(n)) as u32;
            let v = ((state >> 13) % u64::from(n)) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        let graph = CsrGraph::from_edges(n as usize, &edges);
        s.push(Snapshot::new(t as f64, graph, pages.clone()).unwrap())
            .unwrap();
    }
    s
}

fn assert_bitwise_equal(warm: &PipelineReport, cold: &PipelineReport, what: &str) {
    assert_eq!(warm.pages, cold.pages, "{what}: pages");
    assert_eq!(warm.trends, cold.trends, "{what}: trends");
    assert_eq!(warm.estimates, cold.estimates, "{what}: estimates");
    assert_eq!(warm.current, cold.current, "{what}: current");
    assert_eq!(warm.future, cold.future, "{what}: future");
    assert_eq!(warm.selected, cold.selected, "{what}: selected");
    assert_eq!(warm.err_estimate, cold.err_estimate, "{what}: err_estimate");
    assert_eq!(warm.err_current, cold.err_current, "{what}: err_current");
    for (w, c, which) in [
        (&warm.summary_estimate, &cold.summary_estimate, "estimate"),
        (&warm.summary_current, &cold.summary_current, "current"),
    ] {
        assert_eq!(w.mean_error, c.mean_error, "{what}: {which} mean");
        assert_eq!(w.median_error, c.median_error, "{what}: {which} median");
        assert_eq!(w.frac_below_01, c.frac_below_01, "{what}: {which} <0.1");
        assert_eq!(w.frac_above_1, c.frac_above_1, "{what}: {which} >1");
        assert_eq!(w.count, c.count, "{what}: {which} count");
    }
    assert_eq!(
        warm.trajectories.times, cold.trajectories.times,
        "{what}: trajectory times"
    );
    assert_eq!(
        warm.trajectories.values, cold.trajectories.values,
        "{what}: trajectory values"
    );
    assert_eq!(
        warm.trajectories.pages, cold.trajectories.pages,
        "{what}: trajectory pages"
    );
}

#[test]
fn engine_matches_cold_pipeline_for_every_window_shape_and_budget() {
    let metric = PopularityMetric::paper_pagerank();
    let estimator = PaperEstimator {
        c: 0.1,
        flat_tolerance: 0.0,
    };
    // (window, label, expected columns solved by a warm engine)
    let scenarios: [(u64, u64, &str, u64); 6] = [
        (0, 4, "cold start", 4),
        (0, 5, "append", 1),
        // every snapshot of the slid window was in the previous one, so
        // a pure slide re-solves nothing at all
        (1, 5, "window slide", 0),
        (2, 6, "slide with one new snapshot", 1),
        // t=3..7 all contain page 40: the common set gains a page, so
        // every column's restricted graph changes and must re-solve
        (3, 7, "common-set change (slide)", 4),
        // t=5..8 all contain page 41 as well: changed again
        (5, 8, "common-set change (shrunk window)", 3),
    ];
    let large = large_series();
    // Every report's bytes at budget 1; later budgets must reproduce them.
    let mut at_budget_1: Vec<String> = Vec::new();
    for budget in [1usize, 2, 8] {
        qrank_rank::set_thread_budget(budget);
        let mut reports: Vec<String> = Vec::new();
        let mut engine = PipelineEngine::new(metric.clone());
        for &(lo, hi, label, want_solved) in &scenarios {
            let series = window(lo, hi);
            let what = format!("budget {budget}, {label}");
            let warm = engine
                .run(&series, &estimator, 0.05)
                .unwrap_or_else(|e| panic!("{what}: engine failed: {e}"));
            assert_eq!(
                engine.stats().columns_solved(),
                want_solved,
                "{what}: columns solved"
            );
            let cold = run_pipeline_with(&series, &metric, &estimator, 0.05)
                .unwrap_or_else(|e| panic!("{what}: cold pipeline failed: {e}"));
            assert_bitwise_equal(&warm, &cold, &what);
            reports.push(format!("{warm:?}"));
        }
        let report = run_pipeline_with(&large, &metric, &estimator, 0.05)
            .unwrap_or_else(|e| panic!("budget {budget}, large web: pipeline failed: {e}"));
        assert_eq!(report.pages.len(), LARGE_PAGES as usize);
        reports.push(format!("{report:?}"));

        // `{:?}` prints every f64 in its shortest round-trip form, so
        // equal renderings mean equal bits.
        if budget == 1 {
            at_budget_1 = reports;
            continue;
        }
        assert_eq!(reports.len(), at_budget_1.len());
        for (i, (now, first)) in reports.iter().zip(&at_budget_1).enumerate() {
            let label = scenarios.get(i).map_or("large web", |s| s.2);
            assert!(
                now == first,
                "budget {budget}, {label}: report bytes differ from budget 1"
            );
        }
    }
    // restore the default budget for any test that runs after us
    qrank_rank::set_thread_budget(0);
}
