//! BENCH-PIPELINE — end-to-end wall-clock of the full experiment path
//! (simulate → snapshot → rank → estimate) at 1, 2, and 8 threads.
//!
//! Exercises the deterministic parallel execution layer end to end: the
//! world's visit phase and the align stage run on the given thread
//! budget; the pipeline's PageRank (`solve_auto`, sequential
//! Gauss–Seidel) ignores it. Besides the timings, the run
//! fingerprints the simulated history at each budget and asserts the
//! fingerprints match — the bit-identity guarantee, checked on the real
//! workload, not just in unit tests.
//!
//! Results land in `BENCH_pipeline.json`, including `host_cpus`:
//! speedups are bounded by the hardware the bench ran on, so the
//! recorded numbers are only meaningful next to that field.
//!
//! Usage: `bench_pipeline [small|full] [seed]` (full ≈ 500k+ pages).

use std::time::Instant;

use qrank_bench::obs::obs_section;
use qrank_core::{run_pipeline, PipelineConfig, PipelineEngine, StageStats};
use qrank_graph::{Snapshot, SnapshotSeries};
use qrank_serve::json::{array, Obj};
use qrank_sim::{Crawler, QualityDist, SimConfig, World};

/// FNV-1a over a stream of u64 words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Hash every observable of the simulated history: page count, per-page
/// popularity and awareness bit patterns, and the final edge list.
fn sim_fingerprint(world: &World) -> u64 {
    let mut h = Fnv::new();
    h.word(world.num_pages() as u64);
    for p in world.popularities() {
        h.word(p.to_bits());
    }
    for p in 0..world.num_pages() as u32 {
        h.word(world.awareness(p).to_bits());
    }
    for (src, dst) in world.link_graph_at(world.time()).edges() {
        h.word((u64::from(src) << 32) | u64::from(dst));
    }
    h.0
}

/// Seconds the current obs registry has accumulated in the pipeline's
/// align stage, summed over every span path that ends in the stage name
/// (the stage nests under `pipeline.run` or `pipeline.warm` depending
/// on the caller). Call between a `qrank_obs::reset` and the next one
/// so the number covers exactly one measured region.
fn align_seconds() -> f64 {
    qrank_obs::global()
        .snapshot()
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with("pipeline.stage.align"))
        .map(|(_, h)| h.sum as f64 / 1e9)
        .sum()
}

struct RunResult {
    threads: usize,
    pages: usize,
    common_pages: usize,
    sim_seconds: f64,
    snapshot_seconds: f64,
    rank_estimate_seconds: f64,
    align_seconds: f64,
    total_seconds: f64,
    fingerprint: u64,
    improvement_factor: f64,
    obs: String,
}

fn run_once(
    cfg: SimConfig,
    threads: usize,
    snapshot_times: &[f64],
) -> (RunResult, World, SnapshotSeries) {
    qrank_obs::reset();
    qrank_rank::set_thread_budget(threads);
    let total_started = Instant::now();
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    world.set_thread_budget(threads);

    let crawler = Crawler::default();
    let mut series = SnapshotSeries::new();
    let mut sim_seconds = 0.0;
    let mut snapshot_seconds = 0.0;
    for &t in snapshot_times {
        let started = Instant::now();
        world.run_until(t);
        sim_seconds += started.elapsed().as_secs_f64();
        let started = Instant::now();
        series
            .push(crawler.crawl(&world, t).expect("crawl"))
            .expect("snapshot times ascend");
        snapshot_seconds += started.elapsed().as_secs_f64();
    }

    let started = Instant::now();
    let report = run_pipeline(&series, &PipelineConfig::default()).expect("pipeline");
    let rank_estimate_seconds = started.elapsed().as_secs_f64();
    let total_seconds = total_started.elapsed().as_secs_f64();
    qrank_rank::set_thread_budget(0);

    let result = RunResult {
        threads,
        pages: world.num_pages(),
        common_pages: report.pages.len(),
        sim_seconds,
        snapshot_seconds,
        rank_estimate_seconds,
        align_seconds: align_seconds(),
        total_seconds,
        fingerprint: sim_fingerprint(&world),
        improvement_factor: report.improvement_factor(),
        obs: obs_section(),
    };
    (result, world, series)
}

struct SlideResult {
    tracked_pages: usize,
    cold: StageStats,
    slide: StageStats,
    cold_align_seconds: f64,
    align_seconds: f64,
    slide_seconds: f64,
    rank_solves: u64,
    column_hit_rate: f64,
    obs: String,
}

fn stats_obj(s: &StageStats) -> String {
    Obj::new()
        .int("restrict_hits", s.restrict_hits)
        .int("restrict_misses", s.restrict_misses)
        .int("column_hits", s.column_hits)
        .int("column_misses", s.column_misses)
        .finish()
}

/// Serve-style incremental refresh on the benched workload: track the
/// corpus known at the first snapshot, run the stage engine cold over
/// the existing window, then slide the window by one freshly crawled
/// snapshot. Because the tracked corpus is fixed, the common page set
/// survives the slide and the engine must reuse every surviving
/// trajectory column — the slide solves exactly one column (the new
/// snapshot's), which the `rank.solve.*` counters prove.
fn window_slide(mut world: World, series: &SnapshotSeries, extra_time: f64) -> SlideResult {
    qrank_rank::set_thread_budget(1);
    let tracked = series.snapshots()[0].pages().to_vec();
    let restrict = |snap: &Snapshot| snap.restrict_to(&tracked).expect("tracked pages never die");

    let mut snaps: Vec<Snapshot> = series.snapshots().iter().map(restrict).collect();
    let crawler = Crawler::default();
    world.run_until(extra_time);
    snaps.push(restrict(&crawler.crawl(&world, extra_time).expect("crawl")));
    let window = |range: std::ops::Range<usize>| {
        let mut s = SnapshotSeries::new();
        for snap in &snaps[range] {
            s.push(snap.clone()).expect("snapshot times ascend");
        }
        s
    };

    let cfg = PipelineConfig::default();
    let mut engine = PipelineEngine::new(cfg.metric.clone());
    // reset so the cold run's align span is measured in isolation too
    qrank_obs::reset();
    engine
        .run_config(&window(0..snaps.len() - 1), &cfg)
        .expect("cold engine run");
    let cold = engine.stats();
    let cold_align_seconds = align_seconds();

    // measure the slide alone: obs counters cover exactly this run
    qrank_obs::reset();
    let started = Instant::now();
    engine
        .run_config(&window(1..snaps.len()), &cfg)
        .expect("slide engine run");
    let slide_seconds = started.elapsed().as_secs_f64();
    let slide = engine.stats();
    let slide_align_seconds = align_seconds();
    qrank_rank::set_thread_budget(0);

    let obs = obs_section();
    let rank_solves: u64 = qrank_obs::global()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("rank.solve."))
        .map(|&(_, v)| v)
        .sum();
    let total_columns = slide.column_hits + slide.column_misses;
    let column_hit_rate = if total_columns == 0 {
        0.0
    } else {
        slide.column_hits as f64 / total_columns as f64
    };
    SlideResult {
        tracked_pages: tracked.len(),
        cold,
        slide,
        cold_align_seconds,
        align_seconds: slide_align_seconds,
        slide_seconds,
        rank_solves,
        column_hit_rate,
        obs,
    }
}

fn main() {
    let mut full = true;
    let mut seed = 42u64;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "small" => full = false,
            "full" => full = true,
            s => seed = s.parse().expect("bad seed"),
        }
    }
    // `full` targets the >=500k-page regime (sites + users + births);
    // `small` keeps the same shape at 1/40 scale for quick runs.
    let (users, sites, birth_rate, burn_in) = if full {
        (2_000usize, 200usize, 60_000.0, 8.0)
    } else {
        (500, 50, 2_000.0, 4.0)
    };
    let cfg = SimConfig {
        num_users: users,
        num_sites: sites,
        visit_ratio: 1.0,
        page_birth_rate: birth_rate,
        quality_dist: QualityDist::Uniform { lo: 0.05, hi: 0.95 },
        dt: 0.05,
        seed,
        ..Default::default()
    };
    let snapshot_times = [burn_in, burn_in + 0.5, burn_in + 1.0, burn_in + 2.5];
    // observability stays on for every run: the per-run `obs` section
    // records solver iteration counts and simulator activity, and the
    // fingerprint assert below doubles as the instrumented-determinism
    // check on the real workload.
    qrank_obs::set_enabled(true);
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "BENCH-PIPELINE: {} mode, seed {seed}, host_cpus {host_cpus}",
        if full { "full" } else { "small" }
    );

    let mut runs: Vec<RunResult> = Vec::new();
    let mut last_run = None;
    for &threads in &[1usize, 2, 8] {
        let (r, world, series) = run_once(cfg, threads, &snapshot_times);
        println!(
            "  {} threads: {} pages ({} common) | sim {:.2}s, snapshot {:.2}s, \
             rank+estimate {:.2}s (align {:.2}s), total {:.2}s | fingerprint {:016x}",
            r.threads,
            r.pages,
            r.common_pages,
            r.sim_seconds,
            r.snapshot_seconds,
            r.rank_estimate_seconds,
            r.align_seconds,
            r.total_seconds,
            r.fingerprint
        );
        runs.push(r);
        last_run = Some((world, series));
    }

    let bit_identical = runs.iter().all(|r| r.fingerprint == runs[0].fingerprint);
    assert!(
        bit_identical,
        "simulated histories diverged across thread counts"
    );
    let speedup_2t = runs[0].total_seconds / runs[1].total_seconds;
    let speedup_8t = runs[0].total_seconds / runs[2].total_seconds;
    println!("  sim bit-identical across 1/2/8 threads: OK");
    println!("  total speedup: {speedup_2t:.2}x at 2 threads, {speedup_8t:.2}x at 8 threads");

    let (world, series) = last_run.expect("three runs completed");
    let ws = window_slide(world, &series, burn_in + 3.0);
    println!(
        "  window slide: {} columns reused, {} solved ({} rank solves) in {:.2}s \
         | align {:.2}s (cold {:.2}s) | column hit rate {:.0}%",
        ws.slide.columns_reused(),
        ws.slide.columns_solved(),
        ws.rank_solves,
        ws.slide_seconds,
        ws.align_seconds,
        ws.cold_align_seconds,
        ws.column_hit_rate * 100.0
    );
    // restrict-cache hits make the slide's align stage skip three of the
    // four restrictions; if its span doesn't shrink versus the cold run
    // over the same corpus, snapshot-level alignment reuse is broken
    assert!(
        ws.align_seconds < ws.cold_align_seconds,
        "window-slide align span ({:.2}s) did not shrink versus the cold run ({:.2}s)",
        ws.align_seconds,
        ws.cold_align_seconds
    );
    // the stage engine's reason to exist: a window slide that reuses no
    // cached columns means fingerprint-keyed invalidation is broken
    if ws.slide.column_hits == 0 {
        eprintln!(
            "FAIL: window-slide refresh reported a zero stage-cache hit rate \
             ({} hits / {} misses)",
            ws.slide.column_hits, ws.slide.column_misses
        );
        std::process::exit(1);
    }
    assert_eq!(
        ws.slide.columns_solved(),
        1,
        "a window slide over a fixed corpus must solve only the new snapshot's column"
    );
    assert_eq!(
        ws.rank_solves, 1,
        "rank.solve.* counters must record exactly one solve during the slide"
    );

    let json = Obj::new()
        .str("mode", if full { "full" } else { "small" })
        .int("seed", seed)
        .int("host_cpus", host_cpus as u64)
        .int("pages", runs[0].pages as u64)
        .int("common_pages", runs[0].common_pages as u64)
        .int("snapshots", snapshot_times.len() as u64)
        .raw(
            "runs",
            &array(runs.iter().map(|r| {
                Obj::new()
                    .int("threads", r.threads as u64)
                    .num("sim_seconds", r.sim_seconds)
                    .num("snapshot_seconds", r.snapshot_seconds)
                    .num("rank_estimate_seconds", r.rank_estimate_seconds)
                    .num("align_seconds", r.align_seconds)
                    .num("total_seconds", r.total_seconds)
                    .str("sim_fingerprint", &format!("{:016x}", r.fingerprint))
                    .num("improvement_factor", r.improvement_factor)
                    .raw("obs", &r.obs)
                    .finish()
            })),
        )
        .bool("sim_bit_identical", bit_identical)
        .num("speedup_2_threads", speedup_2t)
        .num("speedup_8_threads", speedup_8t)
        .raw(
            "window_slide",
            &Obj::new()
                .int("tracked_pages", ws.tracked_pages as u64)
                .raw("cold", &stats_obj(&ws.cold))
                .raw("slide", &stats_obj(&ws.slide))
                .num("cold_align_seconds", ws.cold_align_seconds)
                .num("align_seconds", ws.align_seconds)
                .num("slide_seconds", ws.slide_seconds)
                .int("rank_solves", ws.rank_solves)
                .num("column_hit_rate", ws.column_hit_rate)
                .raw("obs", &ws.obs)
                .finish(),
        )
        .str(
            "note",
            &format!(
                "wall-clock speedup is bounded by host_cpus={host_cpus}; \
                 determinism (sim_bit_identical) is hardware-independent"
            ),
        )
        .finish();
    std::fs::write("BENCH_pipeline.json", format!("{json}\n")).unwrap();
    println!("  wrote BENCH_pipeline.json");
}
