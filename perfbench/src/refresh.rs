//! `refresh`: the service's write side, with no sim, crawl or sockets.
//!
//! Set-up builds the web and seeds a durable engine (journal plus periodic
//! checkpoints in a work directory). The measured operation is one
//! `ingest` of a delta, from the call to its sealed generation: apply →
//! snapshot → one-column solve (three columns are reused) → estimate →
//! publish → journal. Deltas go back to back. The run ends with a kill
//! (the engine is dropped without a checkpoint) and an `open_durable`
//! recovery, which must restore the uninterrupted store bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qrank_core::{run_pipeline, PipelineConfig, PipelineReport};
use qrank_graph::SnapshotSeries;
use qrank_serve::{DurabilityConfig, EdgeDelta, RefreshConfig, RefreshEngine, ShardedStore};

use crate::check::{store_mismatch, store_vs_report};
use crate::inputs::{web, Web};
use crate::result::Measured;
use crate::stats::{median, tail};
use crate::trace::{obs_counter_sum, obs_span_seconds, Spans};
use crate::{Run, THREADS};

/// Pages in the web: at 100k nodes and 2 threads the solver is colored
/// Gauss–Seidel.
pub const PAGES: usize = 100_000;

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;

/// Automatic checkpoint interval, in deltas.
const CHECKPOINT_EVERY: u64 = 8;

/// Deltas the traced run replays at most, which bounds its length.
const TRACED_DELTAS: usize = 24;

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        ..DurabilityConfig::at(dir)
    }
}

/// Open a durable engine in a fresh `dir`, seeded with the web's window.
fn open_seeded(web: &Web, dir: &Path) -> Result<(RefreshEngine, Arc<ShardedStore>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let handle = Arc::new(ShardedStore::new(1));
    let (mut engine, _) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durability(dir),
        Arc::clone(&handle),
        Some(&web.seed),
    )
    .map_err(|e| e.to_string())?;
    engine.set_thread_budget(THREADS);
    Ok((engine, handle))
}

/// Ingest one delta; `Err` unless it published the next generation.
fn ingest(engine: &mut RefreshEngine, delta: &EdgeDelta) -> Result<(), String> {
    let expected = engine.generation() + 1;
    match engine.ingest(delta) {
        Ok(Some(stats)) if stats.generation == expected => Ok(()),
        Ok(other) => Err(format!(
            "ingest published {other:?}, expected generation {expected}"
        )),
        Err(e) => Err(e.to_string()),
    }
}

pub fn run(r: &Run) -> Measured {
    let mut m = Measured {
        correct: true,
        ..Default::default()
    };
    let dir = r.work.join("journal");
    let mut setups = Vec::new();
    let mut seeded = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let w = web(PAGES, r.seed);
        let opened = open_seeded(&w, &dir);
        setups.push(started.elapsed().as_secs_f64());
        seeded = Some((w, opened));
    }
    let (w, opened) = seeded.expect("at least one set-up");
    let (mut engine, handle) = match opened {
        Ok(x) => x,
        Err(e) => {
            eprintln!("seeding the durable engine failed: {e}");
            m.attempted = 1;
            m.failed = 1;
            return m;
        }
    };
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    first_generation(&w, &handle, &mut m);

    // The measured phase: deltas back to back until the time is up.
    let mut publish_ms = Vec::new();
    let measured = Instant::now();
    for delta in &w.deltas {
        if measured.elapsed().as_secs_f64() >= r.seconds {
            break;
        }
        m.attempted += 1;
        let started = Instant::now();
        let outcome = ingest(&mut engine, delta);
        publish_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = outcome {
            eprintln!("delta at t={}: {e}", delta.time);
            m.failed += 1;
        }
    }
    if measured.elapsed().as_secs_f64() < r.seconds {
        eprintln!("the delta supply ran out before the measured time was up");
    }
    let n = publish_ms.len();
    let busy_s: f64 = publish_ms.iter().sum::<f64>() / 1e3;
    m.set("op_p50_ms", median(&publish_ms).unwrap_or(0.0));
    if let Some(t) = tail(&publish_ms) {
        println!("op_tail_ms is {} of {n} deltas", t.label());
        m.set("op_tail_ms", t.value);
    }
    m.set("ops_per_s", n as f64 / busy_s);

    // Checks: the published scores equal a cold pipeline over the final
    // window, and recovery after a kill restores them bit for bit.
    m.attempted += 2;
    if let Err(why) = matches_cold(engine.series(), &handle) {
        eprintln!("final window: {why}");
        m.failed += 1;
    }
    drop(engine);
    if let Err(why) = recover_matches(&dir, &handle).map(|_| ()) {
        eprintln!("recovery: {why}");
        m.failed += 1;
    }

    if r.trace {
        let replayed = n.min(TRACED_DELTAS);
        let busy_s = publish_ms[..replayed].iter().sum::<f64>() / 1e3;
        traced(r, &w.deltas[..replayed], busy_s, &mut m);
    }
    m
}

/// `Ok` with the cold report when `store` publishes exactly what a cold
/// `run_pipeline` over `window` computes.
pub fn matches_cold(
    window: &SnapshotSeries,
    store: &ShardedStore,
) -> Result<PipelineReport, String> {
    let cold = run_pipeline(window, &PipelineConfig::default()).map_err(|e| e.to_string())?;
    match store_vs_report(store, &cold) {
        Some(why) => Err(format!(
            "published store differs from a cold pipeline: {why}"
        )),
        None => Ok(cold),
    }
}

/// Check the first published generation, built from the seed window,
/// against a cold pipeline, and report its Eq. 1 quality: the current
/// popularity's error over the estimate's error on the held-out third
/// seed snapshot.
pub fn first_generation(w: &Web, store: &ShardedStore, m: &mut Measured) {
    m.attempted += 1;
    match matches_cold(&w.seed, store) {
        Ok(cold) => m.set("improvement_factor", cold.improvement_factor()),
        Err(why) => {
            eprintln!("first generation: {why}");
            m.failed += 1;
        }
    }
}

/// Recover the journal in `dir` after a kill and compare the recovered
/// store with `uninterrupted`. Returns the recovery time in seconds and
/// the replayed record count.
fn recover_matches(dir: &Path, uninterrupted: &ShardedStore) -> Result<(f64, u64), String> {
    let handle = Arc::new(ShardedStore::new(1));
    let started = Instant::now();
    let (_engine, report) = RefreshEngine::open_durable(
        RefreshConfig::default(),
        &durability(dir),
        Arc::clone(&handle),
        None,
    )
    .map_err(|e| e.to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    if !report.replay_errors.is_empty() {
        return Err(format!("replay errors: {:?}", report.replay_errors));
    }
    match store_mismatch(uninterrupted, &handle) {
        Some(why) => Err(format!("recovered store differs: {why}")),
        None => Ok((seconds, report.replayed_records)),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(md) if md.is_dir() => dir_bytes(&e.path()),
                    Ok(md) => md.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// The traced run over the same `deltas` the untraced phase ingested.
///
/// Pass A drives a non-durable engine through the public steps of an
/// ingest (`apply_delta`, `push_snapshot`, `rerank`), one span each. Pass
/// B repeats the durable `ingest` calls; what it costs beyond its rerank
/// and checkpoint and pass A's apply and snapshot is the journal. The
/// kill and recovery close pass B. Both passes must publish the same
/// store.
fn traced(r: &Run, deltas: &[EdgeDelta], untraced_busy_s: f64, m: &mut Measured) {
    let w = web(PAGES, r.seed);
    qrank_obs::reset();
    qrank_obs::set_enabled(true);
    let mut spans = Spans::new();
    let from = spans.now_ns();

    let handle_a = Arc::new(ShardedStore::new(1));
    let mut a = spans
        .time("setup", || {
            RefreshEngine::from_series(&w.seed, RefreshConfig::default(), Arc::clone(&handle_a))
        })
        .expect("seed a non-durable engine");
    a.set_thread_budget(THREADS);
    let obs_base = (
        obs_span_seconds("rank.solve_auto"),
        obs_span_seconds("pipeline.stage.align"),
        obs_span_seconds("pipeline.estimate"),
        obs_counter_sum("rank.iterations."),
    );
    let (mut solved, mut reused, mut edge_sweeps) = (0u64, 0u64, 0f64);
    for d in deltas {
        let iterations_before = obs_counter_sum("rank.iterations.");
        m.attempted += 1;
        let ok = spans.time("refresh.apply", || a.apply_delta(d)).is_ok()
            && spans
                .time("refresh.snapshot", || a.push_snapshot(d.time))
                .is_ok()
            && matches!(spans.time("refresh.rerank", || a.rerank()), Ok(Some(_)));
        if !ok {
            m.failed += 1;
        }
        let stage = a.stage_stats();
        solved += stage.columns_solved();
        reused += stage.columns_reused();
        let edges = a
            .series()
            .snapshots()
            .last()
            .map_or(0, |s| s.graph.num_edges());
        edge_sweeps +=
            (edges as u64 * (obs_counter_sum("rank.iterations.") - iterations_before)) as f64;
    }
    let solve_s = obs_span_seconds("rank.solve_auto") - obs_base.0;
    let align_s = obs_span_seconds("pipeline.stage.align") - obs_base.1;
    let estimate_s = obs_span_seconds("pipeline.estimate") - obs_base.2;
    let iterations = obs_counter_sum("rank.iterations.") - obs_base.3;
    let apply_snapshot_s = spans.seconds("refresh.apply") + spans.seconds("refresh.snapshot");

    let dir: PathBuf = r.work.join("traced-journal");
    let (mut b, handle_b) = spans
        .time("setup", || open_seeded(&w, &dir))
        .expect("seed a durable engine");
    let checkpoint_base = obs_span_seconds("refresh.checkpoint");
    let rerank_base = obs_span_seconds("refresh.rerank");
    let (mut journal_bytes, mut plain_deltas) = (0u64, 0u64);
    let b_from = spans.now_ns();
    for d in deltas {
        let before = (
            dir_bytes(&dir),
            b.wal_stats().and_then(|s| s.last_checkpoint_lsn),
        );
        m.attempted += 1;
        if spans.time("refresh.ingest", || ingest(&mut b, d)).is_err() {
            m.failed += 1;
        }
        if b.wal_stats().and_then(|s| s.last_checkpoint_lsn) == before.1 {
            journal_bytes += dir_bytes(&dir).saturating_sub(before.0);
            plain_deltas += 1;
        }
    }
    let b_wall_s = (spans.now_ns() - b_from) as f64 / 1e9;
    let checkpoint_s = obs_span_seconds("refresh.checkpoint") - checkpoint_base;
    let durable_rerank_s = obs_span_seconds("refresh.rerank") - rerank_base;
    let checkpoints = deltas.len() as u64 - plain_deltas;
    drop(b);
    let recovered = spans.time("wal.recover", || recover_matches(&dir, &handle_b));
    let to = spans.now_ns();
    qrank_obs::set_enabled(false);

    m.attempted += 2;
    if let Some(why) = store_mismatch(&handle_a, &handle_b) {
        eprintln!("durable and non-durable engines published different stores: {why}");
        m.failed += 1;
    }
    let (recovery_s, replayed) = recovered.unwrap_or_else(|why| {
        eprintln!("traced recovery: {why}");
        m.failed += 1;
        (0.0, 0)
    });
    let n = deltas.len().max(1) as f64;
    let durable_s = spans.seconds("refresh.ingest");
    m.set("align.s", align_s);
    m.set("align.common_pages", handle_a.current().len() as f64);
    m.set("solve.s", solve_s);
    m.set("solve.columns", solved as f64);
    m.set("solve.iterations", iterations as f64);
    m.set(
        "solve.edges_per_s",
        if solve_s > 0.0 {
            edge_sweeps / solve_s
        } else {
            0.0
        },
    );
    m.set("estimate.s", estimate_s);
    m.set(
        "engine.column_reuse_ratio",
        reused as f64 / (solved + reused).max(1) as f64,
    );
    m.set("refresh.apply_ms", spans.seconds("refresh.apply") * 1e3 / n);
    m.set(
        "refresh.snapshot_ms",
        spans.seconds("refresh.snapshot") * 1e3 / n,
    );
    m.set(
        "refresh.rerank_ms",
        spans.seconds("refresh.rerank") * 1e3 / n,
    );
    // Durable ingest minus its non-durable parts: its own rerank and
    // checkpoint time (the program's spans, same pass) and pass A's apply
    // and snapshot time.
    m.set(
        "wal.ms_per_delta",
        (durable_s - durable_rerank_s - checkpoint_s - apply_snapshot_s) * 1e3 / n,
    );
    m.set(
        "wal.bytes_per_delta",
        journal_bytes as f64 / plain_deltas.max(1) as f64,
    );
    m.set(
        "wal.checkpoint_ms",
        if checkpoints > 0 {
            checkpoint_s * 1e3 / checkpoints as f64
        } else {
            0.0
        },
    );
    m.set("wal.replayed_records", replayed as f64);
    m.set("wal.recovery_ms", recovery_s * 1e3);
    let coverage = spans.coverage(from, to);
    let overhead_ms = (b_wall_s - untraced_busy_s) * 1e3;
    m.set("trace.coverage", coverage);
    m.set("trace.overhead_ms", overhead_ms);
    crate::finish_trace(r, "refresh", &spans, coverage, overhead_ms, m);
}
