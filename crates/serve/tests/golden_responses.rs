//! Golden served bytes: the exact response lines a one-store server
//! answers on the symmetric-tie fixture, pinned as literals.
//!
//! Pages 3, 4 and 5 are structurally symmetric, so their qualities tie
//! exactly and `topk` must fall back to the ascending-`PageId` tiebreak.
//! Every `score`, every `topk` size (including the rejected `k = 0`
//! and a `k` past the page count) and both probes are compared byte for
//! byte after seeding and again after one ingested delta. A change to
//! the store, the cache, the renderers or the refresh path that moves a
//! single digit fails here.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
use qrank_serve::{serve, EdgeDelta, RefreshConfig, RefreshEngine, ServerConfig, ShardedStore};

fn seed_series(snapshots: usize) -> SnapshotSeries {
    let pages: Vec<PageId> = (0..6).map(PageId).collect();
    let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
    let riser: Vec<(u32, u32)> = vec![(3, 1), (4, 1), (5, 1), (0, 1), (2, 1)];
    let mut s = SnapshotSeries::new();
    for i in 0..snapshots {
        let mut edges = base.clone();
        edges.extend_from_slice(&riser[..(i + 1).min(riser.len())]);
        s.push(Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap())
            .unwrap();
    }
    s
}

/// The requests whose responses are pinned, in order.
const REQUESTS: [&str; 13] = [
    "score 0", "score 1", "score 2", "score 3", "score 4", "score 5", "score 99", "topk 0",
    "topk 1", "topk 3", "topk 6", "topk 10", "health",
];

/// Send every pinned request plus `ready` over one connection and
/// return the response lines.
fn served(addr: std::net::SocketAddr) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    REQUESTS
        .iter()
        .chain(["ready"].iter())
        .map(|req| {
            writer.write_all(format!("{req}\n").as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).expect("response");
            assert!(line.ends_with('\n'), "truncated response {line:?}");
            line.trim_end().to_string()
        })
        .collect()
}

fn assert_golden(got: &[String], want: &[&str], phase: &str) {
    assert_eq!(got.len(), want.len(), "{phase}: response count");
    let requests = REQUESTS.iter().chain(["ready"].iter());
    for ((req, g), w) in requests.zip(got).zip(want) {
        assert_eq!(g, w, "{phase}: `{req}` moved");
    }
}

const SEEDED: [&str; 14] = [
    r#"{"ok":true,"page":0,"quality":2.6310810811974212,"pagerank":2.6310810811974212,"trend":"decreasing","generation":1}"#,
    r#"{"ok":true,"page":1,"quality":0.3073245613507703,"pagerank":0.2774999999472615,"trend":"increasing","generation":1}"#,
    r#"{"ok":true,"page":2,"quality":2.6390623193384326,"pagerank":2.641418918940839,"trend":"decreasing","generation":1}"#,
    r#"{"ok":true,"page":3,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing","generation":1}"#,
    r#"{"ok":true,"page":4,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing","generation":1}"#,
    r#"{"ok":true,"page":5,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing","generation":1}"#,
    r#"{"ok":false,"error":"unknown page 99"}"#,
    r#"{"ok":false,"error":"topk k must be in 1..=10000"}"#,
    r#"{"ok":true,"generation":1,"k":1,"pages":[{"page":2,"quality":2.6390623193384326,"pagerank":2.641418918940839,"trend":"decreasing"}]}"#,
    r#"{"ok":true,"generation":1,"k":3,"pages":[{"page":2,"quality":2.6390623193384326,"pagerank":2.641418918940839,"trend":"decreasing"},{"page":0,"quality":2.6310810811974212,"pagerank":2.6310810811974212,"trend":"decreasing"},{"page":1,"quality":0.3073245613507703,"pagerank":0.2774999999472615,"trend":"increasing"}]}"#,
    r#"{"ok":true,"generation":1,"k":6,"pages":[{"page":2,"quality":2.6390623193384326,"pagerank":2.641418918940839,"trend":"decreasing"},{"page":0,"quality":2.6310810811974212,"pagerank":2.6310810811974212,"trend":"decreasing"},{"page":1,"quality":0.3073245613507703,"pagerank":0.2774999999472615,"trend":"increasing"},{"page":3,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"},{"page":4,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"},{"page":5,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"}]}"#,
    r#"{"ok":true,"generation":1,"k":6,"pages":[{"page":2,"quality":2.6390623193384326,"pagerank":2.641418918940839,"trend":"decreasing"},{"page":0,"quality":2.6310810811974212,"pagerank":2.6310810811974212,"trend":"decreasing"},{"page":1,"quality":0.3073245613507703,"pagerank":0.2774999999472615,"trend":"increasing"},{"page":3,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"},{"page":4,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"},{"page":5,"quality":0.14999999997149263,"pagerank":0.14999999997149266,"trend":"decreasing"}]}"#,
    r#"{"ok":true,"status":"serving","generation":1,"pages":6}"#,
    r#"{"ok":true,"ready":true,"draining":false,"generation":1,"pages":6}"#,
];

const AFTER_DELTA: [&str; 14] = [
    r#"{"ok":true,"page":0,"quality":2.6310810811974217,"pagerank":2.6310810811974217,"trend":"oscillating","generation":2}"#,
    r#"{"ok":true,"page":1,"quality":0.40089912274216344,"pagerank":0.3412499999351459,"trend":"increasing","generation":2}"#,
    r#"{"ok":true,"page":2,"quality":2.5729557197481427,"pagerank":2.5776689189529547,"trend":"decreasing","generation":2}"#,
    r#"{"ok":true,"page":3,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating","generation":2}"#,
    r#"{"ok":true,"page":4,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating","generation":2}"#,
    r#"{"ok":true,"page":5,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating","generation":2}"#,
    r#"{"ok":false,"error":"unknown page 99"}"#,
    r#"{"ok":false,"error":"topk k must be in 1..=10000"}"#,
    r#"{"ok":true,"generation":2,"k":1,"pages":[{"page":0,"quality":2.6310810811974217,"pagerank":2.6310810811974217,"trend":"oscillating"}]}"#,
    r#"{"ok":true,"generation":2,"k":3,"pages":[{"page":0,"quality":2.6310810811974217,"pagerank":2.6310810811974217,"trend":"oscillating"},{"page":2,"quality":2.5729557197481427,"pagerank":2.5776689189529547,"trend":"decreasing"},{"page":1,"quality":0.40089912274216344,"pagerank":0.3412499999351459,"trend":"increasing"}]}"#,
    r#"{"ok":true,"generation":2,"k":6,"pages":[{"page":0,"quality":2.6310810811974217,"pagerank":2.6310810811974217,"trend":"oscillating"},{"page":2,"quality":2.5729557197481427,"pagerank":2.5776689189529547,"trend":"decreasing"},{"page":1,"quality":0.40089912274216344,"pagerank":0.3412499999351459,"trend":"increasing"},{"page":3,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"},{"page":4,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"},{"page":5,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"}]}"#,
    r#"{"ok":true,"generation":2,"k":6,"pages":[{"page":0,"quality":2.6310810811974217,"pagerank":2.6310810811974217,"trend":"oscillating"},{"page":2,"quality":2.5729557197481427,"pagerank":2.5776689189529547,"trend":"decreasing"},{"page":1,"quality":0.40089912274216344,"pagerank":0.3412499999351459,"trend":"increasing"},{"page":3,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"},{"page":4,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"},{"page":5,"quality":0.14999999997149271,"pagerank":0.14999999997149271,"trend":"oscillating"}]}"#,
    r#"{"ok":true,"status":"serving","generation":2,"pages":6}"#,
    r#"{"ok":true,"ready":true,"draining":false,"generation":2,"pages":6}"#,
];

#[test]
fn served_bytes_match_the_golden_lines_before_and_after_a_delta() {
    let handle = Arc::new(ShardedStore::new(1));
    let mut engine = RefreshEngine::from_series(
        &seed_series(3),
        RefreshConfig::default(),
        Arc::clone(&handle),
    )
    .unwrap();
    let server = serve(
        handle,
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_capacity: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let seeded = served(server.addr());
    // a second pass answers topk from the cache; the bytes must not move
    assert_eq!(served(server.addr()), seeded, "cached responses differ");

    // page 0 gains the edge riser page 3 of the series would add next;
    // pages 3, 4 and 5 stay symmetric, so the tie survives the refresh
    engine
        .ingest(&EdgeDelta {
            time: 3.0,
            added: vec![(0, 1)],
            ..Default::default()
        })
        .unwrap();
    let after = served(server.addr());
    assert_eq!(served(server.addr()), after, "cached responses differ");
    server.shutdown();

    assert_golden(&seeded, &SEEDED, "seeded");
    assert_golden(&after, &AFTER_DELTA, "after one delta");
}
