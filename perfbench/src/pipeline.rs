//! `pipeline`: the paper's snapshot study, as a researcher runs it.
//!
//! Set-up grows a simulated web to the first capture time (the web that
//! exists when the study starts). The measured operation is the study:
//! four captures with the simulator advancing between them, then one cold
//! `run_pipeline` (align → solve → Eq. 1 estimate), scored against the
//! held-out fourth snapshot. Sim and crawl dominate; no serving layer runs.

use std::sync::Arc;
use std::time::Instant;

use qrank_core::{
    report_from_trajectories, run_pipeline, PaperEstimator, PipelineConfig, PipelineReport,
    PopularityMetric, PopularityTrajectories,
};
use qrank_graph::{AlignmentTracker, Snapshot, SnapshotSeries};
use qrank_sim::{Crawler, QualityDist, SimConfig, World};

use crate::check::report_mismatch;
use crate::result::Measured;
use crate::rng::sub_seed;
use crate::stats::{median, tail};
use crate::trace::Spans;
use crate::{Run, THREADS};

/// Capture times: the first is the end of set-up; the fourth is held out.
const CAPTURES: [f64; 4] = [6.0, 6.5, 7.0, 8.5];

/// Studies measured per run at least, so set-up has a median of three.
const MIN_STUDIES: usize = 3;

/// A mid-scale world: about 87k pages, 61k common to all captures, 200
/// sites so the per-site crawl does real work.
fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        num_users: 1_000,
        num_sites: 200,
        visit_ratio: 1.0,
        page_birth_rate: 10_000.0,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed,
        ..Default::default()
    }
}

/// Bootstrap a world and grow it to the first capture time.
fn set_up(seed: u64) -> World {
    let mut world = World::bootstrap(sim_config(seed)).expect("a valid sim config bootstraps");
    world.set_thread_budget(THREADS);
    world.run_until(CAPTURES[0]);
    world
}

/// Capture the four snapshots, advancing the world between them.
fn capture(world: &mut World) -> SnapshotSeries {
    let crawler = Crawler::default();
    let mut series = SnapshotSeries::new();
    for &t in &CAPTURES {
        world.run_until(t);
        series
            .push(
                crawler
                    .crawl(world, t)
                    .expect("crawl of a bootstrapped world"),
            )
            .expect("capture times ascend");
    }
    series
}

struct Study {
    setup_s: f64,
    study_s: f64,
    report: PipelineReport,
}

fn study(seed: u64) -> Result<Study, String> {
    let started = Instant::now();
    let mut world = set_up(seed);
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let series = capture(&mut world);
    let report = run_pipeline(&series, &PipelineConfig::default()).map_err(|e| e.to_string())?;
    let study_s = started.elapsed().as_secs_f64();
    Ok(Study {
        setup_s,
        study_s,
        report,
    })
}

/// Why a report is unusable, if it is.
fn report_problem(report: &PipelineReport) -> Option<String> {
    let f = report.improvement_factor();
    if report.pages.is_empty() || report.num_selected() == 0 {
        Some("report selects no pages".into())
    } else if !f.is_finite() || f <= 0.0 {
        Some(format!("improvement factor {f} is not finite and positive"))
    } else {
        None
    }
}

pub fn run(r: &Run) -> Measured {
    let mut m = Measured {
        correct: true,
        ..Default::default()
    };
    let (mut setups, mut studies, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Study> = None;
    let measured = Instant::now();
    let mut i = 0;
    while i < MIN_STUDIES || measured.elapsed().as_secs_f64() < r.seconds {
        m.attempted += 1;
        match study(sub_seed(r.seed, i as u64)) {
            Ok(s) => {
                if let Some(why) = report_problem(&s.report) {
                    eprintln!("study {i}: {why}");
                    m.failed += 1;
                }
                setups.push(s.setup_s);
                studies.push(s.study_s * 1e3);
                factors.push(s.report.improvement_factor());
                if first.is_none() {
                    first = Some(s);
                }
            }
            Err(e) => {
                eprintln!("study {i} failed: {e}");
                m.failed += 1;
            }
        }
        i += 1;
    }
    let wall: f64 = studies.iter().sum::<f64>() / 1e3;
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    m.set("op_p50_ms", median(&studies).unwrap_or(0.0));
    if let Some(t) = tail(&studies) {
        println!("op_tail_ms is {} of {} studies", t.label(), studies.len());
        m.set("op_tail_ms", t.value);
    }
    m.set("ops_per_s", studies.len() as f64 / wall);
    m.set("improvement_factor", median(&factors).unwrap_or(0.0));
    if r.trace {
        if let Some(s) = &first {
            traced(r, s, &mut m);
        }
    }
    m
}

/// The traced study: the same seed as the first untraced one, but the
/// pipeline is driven through its per-layer public functions with a span
/// around each, and the result must equal `run_pipeline` bit for bit.
fn traced(r: &Run, untraced: &Study, m: &mut Measured) {
    qrank_obs::reset();
    qrank_obs::set_enabled(true);
    let mut spans = Spans::new();
    let from = spans.now_ns();

    let mut world = spans.time("sim", || set_up(sub_seed(r.seed, 0)));
    let crawler = Crawler::default();
    let mut series = SnapshotSeries::new();
    for &t in &CAPTURES {
        spans.time("sim", || world.run_until(t));
        let snap = spans.time("crawl", || crawler.crawl(&world, t).expect("crawl"));
        series.push(snap).expect("capture times ascend");
    }

    let aligned: Vec<Snapshot> = spans.time("align", || {
        let mut tracker = AlignmentTracker::new();
        tracker.realign(&series);
        let common = Arc::clone(tracker.common_page_set());
        qrank_graph::restrict_snapshots(series.snapshots(), &common, THREADS).expect("restrict")
    });

    let config = PipelineConfig::default();
    let PopularityMetric::PageRank(pr) = &config.metric else {
        unreachable!("the paper's metric is PageRank")
    };
    let (mut iterations, mut edge_sweeps) = (0usize, 0f64);
    let columns: Vec<Vec<f64>> = aligned
        .iter()
        .map(|snap| {
            let solved = spans.time("solve", || qrank_rank::solve_auto(&snap.graph, pr, None));
            iterations += solved.iterations;
            edge_sweeps += (snap.graph.num_edges() * solved.iterations) as f64;
            solved.scores
        })
        .collect();

    let report = spans.time("estimate", || {
        let pages = aligned[0].pages().to_vec();
        let mut values = vec![Vec::with_capacity(columns.len()); pages.len()];
        for col in &columns {
            for (row, &v) in values.iter_mut().zip(col) {
                row.push(v);
            }
        }
        let traj = PopularityTrajectories {
            times: aligned.iter().map(|s| s.time).collect(),
            values,
            pages,
        };
        let estimator = PaperEstimator {
            c: config.c,
            flat_tolerance: config.flat_tolerance,
        };
        report_from_trajectories(&traj, &estimator, config.min_relative_change)
            .expect("estimate over an aligned window")
    });
    let to = spans.now_ns();
    qrank_obs::set_enabled(false);

    m.attempted += 1;
    if let Some(why) = report_mismatch(&report, &untraced.report) {
        eprintln!("traced study differs from run_pipeline: {why}");
        m.failed += 1;
    }
    let traced_s = (to - from) as f64 / 1e9;
    let overhead_ms = (traced_s - untraced.setup_s - untraced.study_s) * 1e3;
    let crawl_s = spans.seconds("crawl");
    let captured: usize = series.snapshots().iter().map(Snapshot::num_pages).sum();
    let solve_s = spans.seconds("solve");
    m.set("sim.s", spans.seconds("sim"));
    m.set("sim.pages_born", world.num_pages() as f64);
    m.set("crawl.s", crawl_s);
    m.set("crawl.pages_captured", captured as f64);
    m.set("crawl.us_per_page", crawl_s * 1e6 / captured.max(1) as f64);
    m.set("align.s", spans.seconds("align"));
    m.set("align.common_pages", report.pages.len() as f64);
    m.set("solve.s", solve_s);
    m.set("solve.columns", columns.len() as f64);
    m.set("solve.iterations", iterations as f64);
    m.set("solve.edges_per_s", edge_sweeps / solve_s);
    m.set("estimate.s", spans.seconds("estimate"));
    m.set("engine.column_reuse_ratio", 0.0);
    let coverage = spans.coverage(from, to);
    m.set("trace.coverage", coverage);
    m.set("trace.overhead_ms", overhead_ms);
    crate::finish_trace(r, "pipeline", &spans, coverage, overhead_ms, m);
}
