//! `serve`: open-loop reads over TCP while refresh publishes under them.
//!
//! Set-up seeds a store like `refresh` does (non-durable), starts the
//! refresh worker and a 2-worker server. The measured phase has two
//! open-loop parts:
//!
//! * [`ROUNDS`] rounds over one connection. Each hands a delta to the
//!   refresh worker and reads at the high rate for a round's length, then
//!   on until a reply carries the new generation. The operation timed end
//!   to end is that publish, from the hand-off to the first such reply;
//!   the high-rate reads compete with refresh for the same 2 cores. A
//!   traced run also reads at the low rate before each hand-off, while
//!   the refresh worker is idle.
//! * A staircase search over 2 connections, without deltas, for the rate
//!   at which the windowed p75 meets [`LIMIT_US`] with no growing backlog.
//!
//! Read latencies are per-layer figures: on a 2-CPU virtual machine
//! sharing its host, the ten-run median of the windowed p75 at 20,000
//! reads/s (with refresh idle) moved by 56% between two sets of runs half
//! an hour apart, with the host's scheduling, too much for a regression
//! bound.
//!
//! The server runs with `ServerConfig::default()`, whose shed policy is
//! off: a shed read counts as failed, and a run must fail none. So
//! `shed_ratio` only checks that nothing was shed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qrank_graph::PageId;
use qrank_serve::protocol::{render_score, render_topk};
use qrank_serve::{
    parse_request, serve, spawn_refresh_worker, RefreshConfig, RefreshEngine, RefreshMsg, Request,
    ServerConfig, ServerHandle, ShardedStore,
};

use crate::check::Json;
use crate::inputs::{web, Web};
use crate::loadgen::{next_read, run_rung, Rung};
use crate::refresh::{first_generation, matches_cold, PAGES};
use crate::result::Measured;
use crate::rng::Rng;
use crate::stats::{median, percentile, tail};
use crate::trace::Spans;
use crate::{Run, THREADS};

/// Set-ups per run; the reported set-up time is their median.
const SETUPS: usize = 3;
/// Client connections (and server workers).
const CONNECTIONS: usize = 2;
/// The low and the high fixed rate, requests per second. On a 2-CPU
/// host the server and the generator saturate near 45k reads per second;
/// at twice this high rate, publishes under it spread more from run to
/// run.
const RATE_LOW: f64 = 1_000.0;
const RATE_HIGH: f64 = 10_000.0;
/// Rounds of a publish under high-rate reads, enough for the tail rule to
/// reach p75, and the share of the measured time they are given (the
/// search rungs split the rest). A round that ends before its publish is
/// seen is followed by rungs of [`PUBLISH_EXTRA`] until it is, or until
/// [`PUBLISH_GIVE_UP`]. At `--seconds 30` a round is 0.41 s, about a
/// publish, so deltas come nearly back to back.
const ROUNDS: usize = 40;
const FIXED_SHARE: f64 = 0.55;
const PUBLISH_EXTRA: Duration = Duration::from_millis(100);
const PUBLISH_GIVE_UP: Duration = Duration::from_secs(30);
/// Length of a traced run's low-rate rung, as a share of a round.
const LOW_SHARE: f64 = 0.2;
/// The read percentile the capacity search judges.
const TAIL_PERCENTILE: f64 = 75.0;
/// The latency limit on that percentile for `ops_per_s`, microseconds
/// from due time. Below saturation a window's p75 is 0.1–3 ms, with the
/// host's noise; past it, queues grow and p75 reaches 10 ms and more.
const LIMIT_US: f64 = 5_000.0;
/// The capacity search is a staircase: [`SEARCH_RUNGS`] rungs from
/// `SEARCH_START`, each stepping the rate up by `SEARCH_STEP` after a
/// passing rung and down after a failing one. `ops_per_s` is the
/// geometric mean rate of the rungs after the first `SEARCH_SETTLE`,
/// which climb towards the limit, so one rung that the host's noise fails
/// moves it by a step's share, not to the bottom of the search.
const SEARCH_RUNGS: usize = 20;
const SEARCH_SETTLE: usize = 4;
const SEARCH_START: f64 = 36_000.0;
const SEARCH_STEP: f64 = 1.05;
/// Length of the windows the high-rate tail is taken over.
const TAIL_WINDOW: Duration = Duration::from_millis(250);
/// Windows a search rung is judged in.
const WINDOWS: usize = 4;
/// Reads replayed in-process by the traced run.
const REPLAY_READS: usize = 200_000;

struct Service {
    handle: Arc<ShardedStore>,
    refresh: Sender<RefreshMsg>,
    worker: JoinHandle<(RefreshEngine, Vec<String>)>,
    server: ServerHandle,
}

fn start(seed: u64) -> Result<(Service, Web), String> {
    let w = web(PAGES, seed);
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine =
        RefreshEngine::from_series(&w.seed, RefreshConfig::default(), Arc::clone(&handle))
            .map_err(|e| e.to_string())?;
    engine.set_thread_budget(THREADS);
    let (refresh, worker) = spawn_refresh_worker(engine);
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: CONNECTIONS,
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(&handle), &cfg).map_err(|e| e.to_string())?;
    Ok((
        Service {
            handle,
            refresh,
            worker,
            server,
        },
        w,
    ))
}

/// Stop the refresh worker and the server; the engine and any refresh
/// errors come back.
fn stop(s: Service) -> (RefreshEngine, Vec<String>) {
    let _ = s.refresh.send(RefreshMsg::Shutdown);
    let out = s.worker.join().expect("refresh worker thread");
    s.server.shutdown();
    out
}

/// Does a rung meet the latency limit with no growing backlog? The
/// median of its windows' tails must meet the limit, so one noisy spell
/// of the host does not fail it, and so must its last window's median,
/// which a growing queue would push past it.
fn passes(rung: &Rung) -> bool {
    let windows = rung.windows(WINDOWS);
    let tails: Vec<f64> = windows
        .iter()
        .filter_map(|w| percentile(w, TAIL_PERCENTILE))
        .collect();
    rung.failed == 0
        && tails.len() == WINDOWS
        && median(&tails).is_some_and(|p| p <= LIMIT_US)
        && windows
            .last()
            .and_then(|w| median(w))
            .is_some_and(|p| p <= LIMIT_US)
}

/// Read until a reply carries `generation`: `rung(len, part)` runs one
/// rung, first for `first`, then for [`PUBLISH_EXTRA`] at a time until the
/// generation is seen or [`PUBLISH_GIVE_UP`] has passed since `handed`.
/// Returns the rungs and, if it was seen, the lag from `handed` to the
/// first reply that carried it.
fn await_generation(
    generation: u64,
    handed: Instant,
    first: Duration,
    mut rung: impl FnMut(Duration, u64) -> Rung,
) -> (Vec<Rung>, Option<Duration>) {
    let mut rungs = Vec::new();
    let (mut len, mut part) = (first, 0);
    loop {
        let read = rung(len, part);
        let seen = read
            .generations
            .iter()
            .filter(|(g, _)| *g >= generation)
            .map(|&(_, t)| t)
            .min();
        rungs.push(read);
        if let Some(at) = seen {
            return (rungs, Some(at.saturating_duration_since(handed)));
        }
        if handed.elapsed() > PUBLISH_GIVE_UP {
            return (rungs, None);
        }
        (len, part) = (PUBLISH_EXTRA, part + 1);
    }
}

/// Did refresh publish one generation per delta handed to it, on top of
/// the seed's generation 1?
fn published_each(generation: u64, handed: u64) -> bool {
    generation == 1 + handed
}

/// One request on a fresh connection; the reply line.
fn ask(addr: std::net::SocketAddr, line: &str) -> Result<String, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    conn.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

pub fn run(r: &Run) -> Measured {
    let mut m = Measured {
        correct: true,
        ..Default::default()
    };
    let mut setups = Vec::new();
    let mut current: Option<(Service, Web)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = current.take() {
            stop(old);
        }
        let started = Instant::now();
        let started_service = start(r.seed);
        setups.push(started.elapsed().as_secs_f64());
        match started_service {
            Ok(s) => current = Some(s),
            Err(e) => {
                eprintln!("starting the service failed: {e}");
                m.attempted = 1;
                m.failed = 1;
                return m;
            }
        }
    }
    let (service, w) = current.expect("at least one set-up");
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    first_generation(&w, &service.handle, &mut m);
    let addr = service.server.addr();

    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let c = TcpStream::connect(addr).expect("connect to the local server");
            c.set_nodelay(true).expect("set TCP_NODELAY");
            c
        })
        .collect();
    let round = Duration::from_secs_f64(r.seconds * FIXED_SHARE / ROUNDS as f64);
    let searching = Duration::from_secs_f64(r.seconds * (1.0 - FIXED_SHARE) / SEARCH_RUNGS as f64);
    let (mut lows, mut highs) = (Vec::new(), Vec::new());
    let mut lags_ms = Vec::new();
    let mut handed = 0u64;
    for (i, delta) in w.deltas.iter().take(ROUNDS).enumerate() {
        if r.trace {
            lows.push(run_rung(
                &conns[..1],
                PAGES,
                RATE_LOW,
                round.mul_f64(LOW_SHARE),
                r.seed,
                i as u64,
            ));
        }
        let started = Instant::now();
        m.attempted += 1;
        if service
            .refresh
            .send(RefreshMsg::Delta(delta.clone()))
            .is_err()
        {
            eprintln!("the refresh worker has stopped; delta {i} was not handed over");
            m.failed += 1;
            break;
        }
        handed += 1;
        let (rungs, lag) = await_generation(1 + handed, started, round, |len, part| {
            let salt = 1_000 * (1 + i as u64) + part;
            run_rung(&conns[..1], PAGES, RATE_HIGH, len, r.seed, salt)
        });
        match lag {
            Some(lag) => lags_ms.push(lag.as_secs_f64() * 1e3),
            None => {
                eprintln!("delta {i} was not published within {PUBLISH_GIVE_UP:?}");
                m.failed += 1;
            }
        }
        let h: Vec<f64> = rungs.iter().flat_map(Rung::latency_us).collect();
        println!(
            "round {i}: reads at {RATE_HIGH}/s p50 {:.0} us, p90 {:.0} us, p99 {:.0} us; publish {:.0} ms",
            median(&h).unwrap_or(f64::NAN),
            percentile(&h, 90.0).unwrap_or(f64::NAN),
            percentile(&h, 99.0).unwrap_or(f64::NAN),
            lag.map_or(f64::NAN, |l| l.as_secs_f64() * 1e3),
        );
        highs.extend(rungs);
    }
    let mut rungs = Vec::new();
    let mut rates = Vec::new();
    let mut rate = SEARCH_START;
    for i in 0..SEARCH_RUNGS {
        let rung = run_rung(&conns, PAGES, rate, searching, r.seed, (ROUNDS + i) as u64);
        let pass = passes(&rung);
        println!(
            "search {rate:.0}/s: p50 {:.0} us, p{TAIL_PERCENTILE} {:.0} us, {}",
            median(&rung.latency_us()).unwrap_or(f64::NAN),
            percentile(&rung.latency_us(), TAIL_PERCENTILE).unwrap_or(f64::NAN),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        rungs.push(rung);
        rates.push(rate);
        rate = if pass {
            rate * SEARCH_STEP
        } else {
            rate / SEARCH_STEP
        };
    }
    drop(conns);

    let all: Vec<&Rung> = lows.iter().chain(&highs).chain(&rungs).collect();
    for rung in &all {
        m.attempted += rung.sent;
        m.failed += rung.failed;
    }
    m.set("op_p50_ms", median(&lags_ms).unwrap_or(0.0));
    if let Some(t) = tail(&lags_ms) {
        println!("op_tail_ms is {} of {} publishes", t.label(), lags_ms.len());
        m.set("op_tail_ms", t.value);
    }
    let settled = &rates[SEARCH_SETTLE..];
    let log_mean = settled.iter().map(|r| r.ln()).sum::<f64>() / settled.len() as f64;
    m.set("ops_per_s", log_mean.exp());

    let stats = ask(addr, "stats");
    let (engine, errors) = stop(service);
    m.attempted += 1;
    if !errors.is_empty() || !published_each(engine.generation(), handed) {
        eprintln!(
            "refresh: generation {} after {handed} deltas, errors {errors:?}",
            engine.generation(),
        );
        m.failed += 1;
    }
    m.attempted += 1;
    if let Err(why) = matches_cold(engine.series(), &engine.handle()) {
        eprintln!("served store after the last delta: {why}");
        m.failed += 1;
    }

    if r.trace {
        let sent: u64 = all.iter().map(|r| r.sent).sum();
        let shed: u64 = all.iter().map(|r| r.shed).sum();
        m.set("shed_ratio", shed as f64 / sent.max(1) as f64);
        let late: Vec<f64> = highs
            .iter()
            .flat_map(|h| h.late.late_us.iter().copied())
            .collect();
        m.set("generator.late_us", percentile(&late, 99.0).unwrap_or(0.0));
        let low_latency: Vec<f64> = lows.iter().flat_map(Rung::latency_us).collect();
        m.set(
            "frontend.read_p50_low_us",
            median(&low_latency).unwrap_or(0.0),
        );
        // A typical stretch of high-rate reads under refresh: each rung is
        // cut into windows of about TAIL_WINDOW, and the median over
        // windows of each percentile is reported, so a rare stall of the
        // shared host moves it little.
        let windows: Vec<Vec<f64>> = highs
            .iter()
            .flat_map(|h| {
                let n = h.duration.as_secs_f64() / TAIL_WINDOW.as_secs_f64();
                h.windows((n.round() as usize).max(1))
            })
            .collect();
        for (name, p) in [
            ("frontend.read_p50_us", 50.0),
            ("frontend.read_p75_us", 75.0),
            ("frontend.read_p90_us", 90.0),
            ("frontend.read_p99_us", 99.0),
        ] {
            let tails: Vec<f64> = windows.iter().filter_map(|w| percentile(w, p)).collect();
            m.set(name, median(&tails).unwrap_or(0.0));
        }
        match stats.as_deref().map(Json::parse) {
            Ok(Ok(Json::Obj(o))) => {
                let num = |k: &str| match o.get(k) {
                    Some(Json::Num(x)) => *x,
                    _ => 0.0,
                };
                let lookups = num("cache_hits") + num("cache_misses");
                m.set("cache.hit_ratio", num("cache_hits") / lookups.max(1.0));
            }
            other => eprintln!("stats verb: {other:?}"),
        }
        let low_rtt: Vec<f64> = lows.iter().flat_map(|l| l.rtt_us.iter().copied()).collect();
        traced(r, &engine.handle(), median(&low_rtt).unwrap_or(0.0), &mut m);
    }
    m
}

fn enter(spans: &mut Option<&mut Spans>, name: &'static str) -> Option<usize> {
    spans.as_deref_mut().map(|s| s.enter(name))
}

fn exit(spans: &mut Option<&mut Spans>, id: Option<usize>) {
    if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
        s.exit(id);
    }
}

/// Serve `lines` in-process, one stage at a time over the whole batch,
/// with a span per stage when `spans` is given. Returns the `score` and
/// `topk` counts and the `topk` rows produced.
fn replay(
    lines: &[String],
    handle: &ShardedStore,
    mut spans: Option<&mut Spans>,
) -> (usize, usize, usize) {
    let id = enter(&mut spans, "protocol.parse");
    let requests: Vec<Request> = lines
        .iter()
        .map(|l| parse_request(l).expect("generated lines parse"))
        .collect();
    exit(&mut spans, id);
    let pages: Vec<u64> = requests
        .iter()
        .filter_map(|q| {
            if let Request::Score(p) = q {
                Some(*p)
            } else {
                None
            }
        })
        .collect();
    let ks: Vec<usize> = requests
        .iter()
        .filter_map(|q| {
            if let Request::TopK(k) = q {
                Some(*k)
            } else {
                None
            }
        })
        .collect();
    let id = enter(&mut spans, "store.score");
    let found = pages
        .iter()
        .filter(|&&p| {
            handle
                .shard_current(handle.route(p))
                .score(PageId(p))
                .is_some()
        })
        .count();
    exit(&mut spans, id);
    let id = enter(&mut spans, "store.topk");
    let rows: usize = ks.iter().map(|&k| handle.current().topk(k).len()).sum();
    exit(&mut spans, id);
    let id = enter(&mut spans, "protocol.render_score");
    let score_bytes: usize = pages
        .iter()
        .map(|&p| render_score(&handle.shard_current(handle.route(p)), p).len())
        .sum();
    exit(&mut spans, id);
    let id = enter(&mut spans, "protocol.render_topk");
    let topk_bytes: usize = ks
        .iter()
        .map(|&k| render_topk(&handle.current(), k).len())
        .sum();
    exit(&mut spans, id);
    std::hint::black_box((found, score_bytes, topk_bytes));
    (pages.len(), ks.len(), rows)
}

/// The traced run: replay a seeded read stream in-process through
/// `parse_request`, the store reads and the `render_*` functions, each
/// stage over the whole batch under one span, and derive the front end's
/// share of a low-rate round trip.
fn traced(r: &Run, handle: &ShardedStore, low_rtt_us: f64, m: &mut Measured) {
    let mut rng = Rng::new(r.seed, 0x7E_9A1A);
    let lines: Vec<String> = (0..REPLAY_READS)
        .map(|_| next_read(&mut rng, PAGES).line())
        .collect();
    let untraced = || {
        let started = Instant::now();
        replay(&lines, handle, None);
        started.elapsed().as_secs_f64()
    };
    // The first pass pays for fresh pages from the allocator, so it only
    // warms up. Untraced passes before and after the traced one bracket
    // it, so a drift of the host's speed cancels out of the overhead.
    untraced();
    let before_s = untraced();

    qrank_obs::reset();
    qrank_obs::set_enabled(true);
    let mut spans = Spans::new();
    let from = spans.now_ns();
    let (scores, topks, rows) = replay(&lines, handle, Some(&mut spans));
    let to = spans.now_ns();
    qrank_obs::set_enabled(false);
    let untraced_s = (before_s + untraced()) / 2.0;

    let per = |name: &str, n: usize| spans.seconds(name) * 1e9 / n.max(1) as f64;
    let parse_ns = per("protocol.parse", scores + topks);
    let score_ns = per("store.score", scores);
    let topk_ns = per("store.topk", topks);
    let render_score_ns = per("protocol.render_score", scores) - score_ns;
    let render_topk_row_ns = (spans.seconds("protocol.render_topk") - spans.seconds("store.topk"))
        * 1e9
        / rows.max(1) as f64;
    m.set("protocol.parse_ns", parse_ns);
    m.set("store.score_ns", score_ns);
    m.set("store.topk_ns", topk_ns);
    m.set("protocol.render_score_ns", render_score_ns);
    m.set("protocol.render_topk_ns_per_row", render_topk_row_ns);
    // Mean in-process handler time of the mix, without the topk cache.
    let handler_us = (spans.seconds("protocol.parse")
        + spans.seconds("protocol.render_score")
        + spans.seconds("protocol.render_topk"))
        * 1e6
        / (scores + topks).max(1) as f64;
    m.set("frontend.rtt_us", low_rtt_us - handler_us);
    let coverage = spans.coverage(from, to);
    let overhead_ms = ((to - from) as f64 / 1e9 - untraced_s) * 1e3;
    m.set("trace.coverage", coverage);
    m.set("trace.overhead_ms", overhead_ms);
    crate::finish_trace(r, "serve", &spans, coverage, overhead_ms, m);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_publish_that_needs_extra_rungs_is_still_one_delta() {
        let handed = Instant::now();
        let first = Duration::from_millis(5);
        let mut calls = Vec::new();
        let (rungs, lag) = await_generation(2, handed, first, |len, part| {
            calls.push((len, part));
            let mut read = Rung {
                duration: len,
                ..Default::default()
            };
            read.generations.push((1, handed));
            if part == 2 {
                read.generations
                    .push((2, handed + Duration::from_millis(7)));
            }
            read
        });
        assert_eq!(
            calls,
            vec![(first, 0), (PUBLISH_EXTRA, 1), (PUBLISH_EXTRA, 2)]
        );
        assert_eq!(rungs.len(), 3);
        assert_eq!(lag, Some(Duration::from_millis(7)));
        // One delta was handed over, whatever the number of rungs.
        assert!(published_each(2, 1));
        assert!(!published_each(2, rungs.len() as u64));
    }
}
