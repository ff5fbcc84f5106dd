//! Inputs of the `refresh` and `serve` workloads: a preferential-attachment
//! web with a fixed page set, three seed snapshots of its growth, and a
//! stream of edge deltas that continues it.

use std::collections::HashSet;

use qrank_graph::{CsrGraph, PageId, Snapshot, SnapshotSeries};
use qrank_serve::EdgeDelta;

use crate::rng::Rng;

/// Out-links each page creates when it joins.
const LINKS_PER_PAGE: usize = 4;
/// Share of the edges present in each seed snapshot; the rest feed deltas.
const SEED_CUTS: [f64; 3] = [0.7, 0.8, 0.9];
/// Edges each delta adds.
const ADDS_PER_DELTA: usize = 200;
/// Edges each delta removes (chosen among edges alive at that point).
const REMOVES_PER_DELTA: usize = 20;

/// The generated web; its pages are `0..pages`, present in every snapshot.
#[derive(Debug)]
pub struct Web {
    /// The seed window: three snapshots at times 0, 1 and 2.
    pub seed: SnapshotSeries,
    /// Deltas at times 3, 4, …; an unbounded supply is not needed, so the
    /// stream stops when the unused edges run out.
    pub deltas: Vec<EdgeDelta>,
}

/// Distinct edges in creation order: each page links out
/// [`LINKS_PER_PAGE`] times, mostly to already-popular targets.
fn growing_edges(pages: usize, rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(pages * LINKS_PER_PAGE);
    let mut seen = HashSet::with_capacity(pages * LINKS_PER_PAGE);
    let mut pool: Vec<u32> = Vec::with_capacity(2 * pages * LINKS_PER_PAGE);
    for src in 1..pages as u32 {
        for _ in 0..LINKS_PER_PAGE.min(src as usize) {
            let dst = if pool.is_empty() || rng.chance(0.25) {
                rng.below(u64::from(src)) as u32
            } else {
                pool[rng.below(pool.len() as u64) as usize]
            };
            if dst != src && seen.insert((src, dst)) {
                edges.push((src, dst));
                pool.push(dst);
                pool.push(src);
            }
        }
    }
    edges
}

/// Build the web for `seed`.
pub fn web(pages: usize, seed: u64) -> Web {
    let mut rng = Rng::new(seed, 0x0057_4542);
    let edges = growing_edges(pages, &mut rng);
    let ids: Vec<PageId> = (0..pages as u64).map(PageId).collect();
    let mut series = SnapshotSeries::new();
    for (i, frac) in SEED_CUTS.iter().enumerate() {
        let cut = (edges.len() as f64 * frac) as usize;
        let snap = Snapshot::new(
            i as f64,
            CsrGraph::from_edges(pages, &edges[..cut]),
            ids.clone(),
        )
        .expect("page ids are distinct");
        series.push(snap).expect("seed times ascend");
    }
    let seeded = (edges.len() as f64 * SEED_CUTS[2]) as usize;
    let mut alive: Vec<(u64, u64)> = edges[..seeded]
        .iter()
        .map(|&(s, d)| (u64::from(s), u64::from(d)))
        .collect();
    let deltas = edges[seeded..]
        .chunks_exact(ADDS_PER_DELTA)
        .enumerate()
        .map(|(i, chunk)| {
            let removed = (0..REMOVES_PER_DELTA)
                .map(|_| alive.swap_remove(rng.below(alive.len() as u64) as usize))
                .collect();
            let added: Vec<(u64, u64)> = chunk
                .iter()
                .map(|&(s, d)| (u64::from(s), u64::from(d)))
                .collect();
            alive.extend_from_slice(&added);
            EdgeDelta {
                time: 3.0 + i as f64,
                added,
                removed,
                ..Default::default()
            }
        })
        .collect();
    Web {
        seed: series,
        deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_web() {
        let (a, b) = (web(2_000, 7), web(2_000, 7));
        assert_eq!(a.deltas, b.deltas);
        assert_eq!(
            a.seed.snapshots()[2].fingerprint(),
            b.seed.snapshots()[2].fingerprint()
        );
        assert_ne!(web(2_000, 8).deltas, a.deltas);
    }

    #[test]
    fn deltas_never_remove_a_dead_edge_or_add_a_live_one() {
        let w = web(3_000, 1);
        let last = &w.seed.snapshots()[2];
        let mut alive: HashSet<(u64, u64)> = last
            .graph
            .edges()
            .map(|(s, d)| (u64::from(s), u64::from(d)))
            .collect();
        assert!(!w.deltas.is_empty());
        for d in &w.deltas {
            for e in &d.removed {
                assert!(alive.remove(e), "removed edge {e:?} was not alive");
            }
            for &e in &d.added {
                assert!(alive.insert(e), "added edge {e:?} was already alive");
            }
        }
    }
}
