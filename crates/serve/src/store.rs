//! The immutable, atomically-swappable score store.
//!
//! A [`ScoreStore`] is one *generation* of serving state: per-page
//! quality estimates, current PageRank, and trend classification, plus a
//! precomputed quality ordering for `topk` queries. Stores are built off
//! the request path (by the refresh worker) and published through a
//! [`ShardedStore`]; readers grab an `Arc` clone under a briefly-held
//! read lock, so a publish never blocks an in-flight request and a
//! request never observes a half-updated store.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use qrank_core::{PipelineReport, Trend};
use qrank_graph::PageId;

/// One page's serving scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageScores {
    /// Estimated quality (Equation 1).
    pub quality: f64,
    /// Current popularity (PageRank at the latest estimation snapshot).
    pub pagerank: f64,
    /// Trend over the estimation window.
    pub trend: Trend,
}

/// An immutable generation of scores.
#[derive(Debug, Clone)]
pub struct ScoreStore {
    generation: u64,
    snapshot_time: f64,
    pages: Vec<PageId>,
    quality: Vec<f64>,
    pagerank: Vec<f64>,
    trends: Vec<Trend>,
    index: HashMap<u64, u32>,
    by_quality: Vec<u32>,
}

impl ScoreStore {
    /// An empty generation-0 store (served before the first refresh).
    pub fn empty() -> Self {
        ScoreStore {
            generation: 0,
            snapshot_time: f64::NEG_INFINITY,
            pages: Vec::new(),
            quality: Vec::new(),
            pagerank: Vec::new(),
            trends: Vec::new(),
            index: HashMap::new(),
            by_quality: Vec::new(),
        }
    }

    /// Build a store from a pipeline report.
    pub fn from_report(report: &PipelineReport, generation: u64, snapshot_time: f64) -> Self {
        let pages = report.pages.clone();
        let quality = report.estimates.clone();
        let index: HashMap<u64, u32> = pages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.0, i as u32))
            .collect();
        let mut by_quality: Vec<u32> = (0..pages.len() as u32).collect();
        by_quality.sort_by(|&a, &b| {
            quality[b as usize]
                .total_cmp(&quality[a as usize])
                .then(pages[a as usize].cmp(&pages[b as usize]))
        });
        ScoreStore {
            generation,
            snapshot_time,
            pages,
            quality,
            pagerank: report.current.clone(),
            trends: report.trends.clone(),
            index,
            by_quality,
        }
    }

    /// Generation counter (monotonic; 0 = empty pre-refresh store).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Capture time of the latest estimation snapshot in this store.
    pub fn snapshot_time(&self) -> f64 {
        self.snapshot_time
    }

    /// Number of pages served.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no pages are served yet.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Scores of `page`, if it is in the serving set.
    pub fn score(&self, page: PageId) -> Option<PageScores> {
        let &row = self.index.get(&page.0)?;
        let i = row as usize;
        Some(PageScores {
            quality: self.quality[i],
            pagerank: self.pagerank[i],
            trend: self.trends[i],
        })
    }

    /// The `k` highest-quality pages, best first (ties broken by page
    /// id). Precomputed at build time — a `topk` query is a slice copy.
    pub fn topk(&self, k: usize) -> Vec<(PageId, PageScores)> {
        self.by_quality
            .iter()
            .take(k)
            .map(|&row| {
                let i = row as usize;
                (
                    self.pages[i],
                    PageScores {
                        quality: self.quality[i],
                        pagerank: self.pagerank[i],
                        trend: self.trends[i],
                    },
                )
            })
            .collect()
    }
}

/// Shared handle through which readers see the current store and the
/// refresh worker publishes new generations.
///
/// The lock is only held long enough to clone or replace an `Arc` — a
/// few nanoseconds — so readers are effectively never blocked by a
/// publish (this is asserted by the concurrent-reader test). A panic
/// while the lock is held cannot wedge it: poison is recovered, so a
/// contained refresh panic leaves the last published generation
/// serving.
#[derive(Debug)]
pub struct ShardedStore {
    current: RwLock<Arc<ScoreStore>>,
}

impl ShardedStore {
    /// The current generation (cheap `Arc` clone).
    pub fn current(&self) -> Arc<ScoreStore> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Atomically swap in a new generation.
    pub fn publish(&self, store: ScoreStore) {
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(store);
    }
}

/// The names the project benchmark calls from when the store was split
/// into shards: `new`, `route`, `shard_current` and `publish_report`.
/// The next benchmark change renames the type to `StoreHandle` and
/// deletes this block.
#[doc(hidden)]
impl ShardedStore {
    /// A handle serving the empty generation-0 store.
    ///
    /// # Panics
    /// Panics unless `shards` is 1: the store is no longer partitioned.
    pub fn new(shards: usize) -> Self {
        assert_eq!(shards, 1, "the score store is one partition");
        ShardedStore {
            current: RwLock::new(Arc::new(ScoreStore::empty())),
        }
    }

    /// The partition owning `page`: always 0.
    pub fn route(&self, _page: u64) -> usize {
        0
    }

    /// The current generation, as [`current`](Self::current).
    pub fn shard_current(&self, _shard: usize) -> Arc<ScoreStore> {
        self.current()
    }

    /// Publish `report` as generation `generation`.
    pub fn publish_report(&self, report: &PipelineReport, generation: u64, snapshot_time: f64) {
        self.publish(ScoreStore::from_report(report, generation, snapshot_time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrank_core::{run_pipeline, PipelineConfig};
    use qrank_graph::{CsrGraph, Snapshot, SnapshotSeries};

    fn report() -> PipelineReport {
        let pages: Vec<PageId> = (0..6).map(PageId).collect();
        let base = vec![(3u32, 2u32), (4, 2), (5, 2), (2, 0), (0, 2), (1, 0)];
        let mut s = SnapshotSeries::new();
        for (i, extra) in [
            vec![(3u32, 1u32)],
            vec![(3, 1), (4, 1)],
            vec![(3, 1), (4, 1), (5, 1)],
            vec![(3, 1), (4, 1), (5, 1), (0, 1)],
        ]
        .iter()
        .enumerate()
        {
            let mut edges = base.clone();
            edges.extend_from_slice(extra);
            s.push(
                Snapshot::new(i as f64, CsrGraph::from_edges(6, &edges), pages.clone()).unwrap(),
            )
            .unwrap();
        }
        run_pipeline(&s, &PipelineConfig::default()).unwrap()
    }

    #[test]
    fn lookup_matches_report_rows() {
        let r = report();
        let store = ScoreStore::from_report(&r, 3, 2.0);
        assert_eq!(store.generation(), 3);
        assert_eq!(store.len(), 6);
        for (i, &p) in r.pages.iter().enumerate() {
            let s = store.score(p).unwrap();
            assert_eq!(s.quality, r.estimates[i]);
            assert_eq!(s.pagerank, r.current[i]);
            assert_eq!(s.trend, r.trends[i]);
        }
        assert!(store.score(PageId(999)).is_none());
    }

    #[test]
    fn topk_is_sorted_by_quality() {
        let store = ScoreStore::from_report(&report(), 1, 2.0);
        let top = store.topk(6);
        assert_eq!(top.len(), 6);
        for w in top.windows(2) {
            assert!(w[0].1.quality >= w[1].1.quality);
        }
        // k beyond the page count truncates
        assert_eq!(store.topk(100).len(), 6);
        assert_eq!(store.topk(2).len(), 2);
    }

    #[test]
    fn handle_swaps_generations_atomically() {
        let handle = ShardedStore::new(1);
        assert_eq!(handle.current().generation(), 0);
        assert!(handle.current().is_empty());
        let r = report();
        handle.publish(ScoreStore::from_report(&r, 1, 2.0));
        let seen = handle.current();
        assert_eq!(seen.generation(), 1);
        // an old Arc stays valid after the next publish
        handle.publish(ScoreStore::from_report(&r, 2, 3.0));
        assert_eq!(seen.generation(), 1);
        assert_eq!(handle.current().generation(), 2);
    }
}
