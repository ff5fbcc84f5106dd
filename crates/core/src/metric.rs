//! Popularity metrics pluggable into the quality estimator.
//!
//! Section 5 of the paper: "We can use here any measure of popularity.
//! We will use PageRank for the purposes of this paper because of its
//! success as a popularity metric, but we could just as easily
//! substitute the number of links."

use qrank_graph::CsrGraph;
use qrank_rank::{PageRankConfig, ScoreScale};

/// A popularity metric computed on one snapshot's graph.
#[derive(Debug, Clone, PartialEq)]
pub enum PopularityMetric {
    /// PageRank with the given configuration (the paper's choice; use
    /// [`PopularityMetric::paper_pagerank`] for the paper's setup).
    PageRank(PageRankConfig),
    /// Raw in-link count (footnote 4's alternative).
    InDegree,
    /// HITS authority score.
    HitsAuthority,
}

impl PopularityMetric {
    /// The paper's PageRank setup: damping d = 0.15 (paper convention),
    /// per-page scale ("we used 1 as the initial PageRank value").
    pub fn paper_pagerank() -> Self {
        PopularityMetric::PageRank(PageRankConfig::paper_style(0.15))
    }

    /// Compute the metric's score for every node of `g`.
    pub fn compute(&self, g: &CsrGraph) -> Vec<f64> {
        self.compute_warm(g, None)
    }

    /// Like [`PopularityMetric::compute`], optionally warm-starting from
    /// a previous snapshot's scores (only the PageRank metric uses the
    /// hint; the others are direct computations).
    ///
    /// PageRank is solved by [`qrank_rank::solve_auto`], sequential
    /// Gauss–Seidel, so a column's bits do not depend on the thread
    /// budget. The stage engine (and through it the pipeline and the
    /// serve refresh engine) calls [`PopularityMetric::compute`]; it
    /// reuses whole columns by snapshot fingerprint rather than
    /// warm-starting, which keeps refreshes bitwise-equal to cold runs.
    pub fn compute_warm(&self, g: &CsrGraph, warm: Option<&[f64]>) -> Vec<f64> {
        match self {
            PopularityMetric::PageRank(cfg) => qrank_rank::solve_auto(g, cfg, warm).scores,
            PopularityMetric::InDegree => qrank_rank::indegree_scores(g),
            PopularityMetric::HitsAuthority => qrank_rank::hits(g, 1e-10, 200).authorities,
        }
    }

    /// Whether scores of this metric are comparable across snapshots of
    /// the same aligned page set without rescaling. True for all provided
    /// metrics: PageRank is computed at a fixed scale over a fixed node
    /// count, in-degree is absolute, HITS is L2-normalized.
    pub fn cross_snapshot_comparable(&self) -> bool {
        match self {
            PopularityMetric::PageRank(cfg) => {
                // Probability scale sums to 1 and PerPage to N — both
                // fixed given the aligned node count.
                cfg.scale == ScoreScale::Probability || cfg.scale == ScoreScale::PerPage
            }
            PopularityMetric::InDegree | PopularityMetric::HitsAuthority => true,
        }
    }
}

impl Default for PopularityMetric {
    fn default() -> Self {
        PopularityMetric::paper_pagerank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 2)])
    }

    #[test]
    fn pagerank_metric_uses_paper_scale() {
        let m = PopularityMetric::paper_pagerank();
        let scores = m.compute(&g());
        let mean = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!((mean - 1.0).abs() < 1e-9, "per-page scale has mean 1");
    }

    #[test]
    fn indegree_metric() {
        let m = PopularityMetric::InDegree;
        assert_eq!(m.compute(&g()), vec![1.0, 1.0, 2.0, 0.0]);
    }

    #[test]
    fn hits_metric_is_normalized() {
        let m = PopularityMetric::HitsAuthority;
        let scores = m.compute(&g());
        let norm: f64 = scores.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
    }

    #[test]
    fn all_metrics_comparable() {
        assert!(PopularityMetric::paper_pagerank().cross_snapshot_comparable());
        assert!(PopularityMetric::InDegree.cross_snapshot_comparable());
        assert!(PopularityMetric::HitsAuthority.cross_snapshot_comparable());
    }

    #[test]
    fn warm_compute_matches_cold() {
        let graph = g();
        let m = PopularityMetric::paper_pagerank();
        let cold = m.compute(&graph);
        let warm = m.compute_warm(&graph, Some(&cold));
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-8);
        }
        // non-PageRank metrics ignore the hint
        let d = PopularityMetric::InDegree;
        assert_eq!(d.compute(&graph), d.compute_warm(&graph, Some(&cold)));
    }

    #[test]
    fn default_is_paper_pagerank() {
        assert_eq!(
            PopularityMetric::default(),
            PopularityMetric::paper_pagerank()
        );
    }
}
