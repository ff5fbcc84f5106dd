//! Gauss–Seidel PageRank: in-place sweeps that use already-updated
//! values within the same iteration.
//!
//! On slowly-mixing graphs (long chains, near-cyclic structure) GS
//! converges in dramatically fewer sweeps than Jacobi power iteration —
//! one sweep can propagate rank down an entire chain. On fast-mixing
//! random graphs plain power iteration can need *fewer* iterations: its
//! error stays orthogonal to the dominant eigenvector (iterates remain on
//! the probability simplex), so it contracts at `α·|λ₂|` rather than
//! GS's spectral radius. Both solvers reach the same fixed point; pick by
//! benchmarking on your graph shape.

use qrank_graph::CsrGraph;

use crate::power::{apply_scale, initial_vector, inv_out_degrees, renormalize, PageRankResult};
use crate::{DanglingStrategy, PageRankConfig};

/// Compute PageRank by Gauss–Seidel iteration.
///
/// Converges to the same fixed point as [`crate::pagerank`] (this is
/// tested), usually in noticeably fewer sweeps. The residual reported per
/// sweep is the L1 distance between consecutive sweep results.
pub fn gauss_seidel(g: &CsrGraph, config: &PageRankConfig) -> PageRankResult {
    gauss_seidel_warm(g, config, None)
}

/// Gauss–Seidel PageRank with an optional warm start.
///
/// Seeding the sweeps with a previous (similar) graph's vector cuts the
/// sweep count the same way [`crate::pagerank_warm`] does for power
/// iteration — the trick an incremental re-ranking service relies on.
/// The warm vector may be on either score scale (it is renormalized to a
/// distribution); a zero-sum, negative, or wrong-length vector falls
/// back to the uniform cold start.
pub fn gauss_seidel_warm(
    g: &CsrGraph,
    config: &PageRankConfig,
    warm: Option<&[f64]>,
) -> PageRankResult {
    let _span = qrank_obs::span!("rank.gauss_seidel");
    config.validate();
    let n = g.num_nodes();
    if n == 0 {
        return PageRankResult {
            scores: Vec::new(),
            iterations: 0,
            converged: true,
            residuals: Vec::new(),
        };
    }
    let inv = inv_out_degrees(g);
    let alpha = config.follow_prob;
    let teleport = (1.0 - alpha) / n as f64;
    let mut x = initial_vector(n, warm);
    // Each page's outflow share `x[u] / outdeg(u)`, rewritten whenever
    // `x[u]` is, so a sweep reads one value per in-link instead of two.
    // The product is the one the pull would form, so the bits match.
    let mut share: Vec<f64> = x.iter().zip(&inv).map(|(a, b)| a * b).collect();
    let mut residuals = Vec::new();
    let mut converged = false;
    let mut iterations = 0;

    // Running dangling mass, updated incrementally as nodes change.
    let mut dangling_mass: f64 = (0..n).filter(|&u| inv[u] == 0.0).map(|u| x[u]).sum();

    while iterations < config.max_iterations {
        // L1 distance between consecutive sweeps, summed in page order.
        let mut r = 0.0;
        for v in 0..n {
            let mut acc = 0.0;
            for &u in g.in_neighbors(v as u32) {
                acc += share[u as usize];
            }
            let dangling_share = match config.dangling {
                DanglingStrategy::LinkToAll => alpha * dangling_mass / n as f64,
                _ => 0.0,
            };
            let mut new_v = teleport + dangling_share + alpha * acc;
            if inv[v] == 0.0 {
                match config.dangling {
                    DanglingStrategy::LinkToAll => {
                        // v's own mass was inside dangling_mass; the pull
                        // above already included it, consistent with the
                        // Jacobi step. Solve the implicit self term:
                        // new_v = base + alpha * x_v / n, where base used
                        // the *old* x_v — acceptable within GS semantics.
                    }
                    DanglingStrategy::SelfLoop => {
                        // x_v = teleport + alpha*acc + alpha*x_v
                        new_v = (teleport + alpha * acc) / (1.0 - alpha);
                    }
                    DanglingStrategy::RemoveAndRenormalize => {}
                }
                dangling_mass += new_v - x[v];
            }
            r += (new_v - x[v]).abs();
            x[v] = new_v;
            share[v] = new_v * inv[v];
        }
        iterations += 1;
        residuals.push(r);
        if r < config.tolerance {
            converged = true;
            break;
        }
    }
    // GS does not preserve the simplex exactly en route; project back.
    renormalize(&mut x);
    apply_scale(&mut x, config.scale);
    qrank_obs::convergence::record_solve("gauss_seidel", n, iterations, converged, &residuals);
    PageRankResult {
        scores: x,
        iterations,
        converged,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::pagerank;
    use qrank_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(n: usize, m: usize, seed: u64) -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_nodes(n);
        for _ in 0..m {
            let u = rng.random_range(0..n) as u32;
            let v = rng.random_range(0..n) as u32;
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn matches_power_iteration() {
        let g = random_graph(200, 1200, 7);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        assert!(a.converged && b.converged);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-8, "power {x} vs gs {y}");
        }
    }

    #[test]
    fn matches_power_with_dangling_nodes() {
        // graph with many dangling nodes
        let g = CsrGraph::from_edges(8, &[(0, 1), (0, 2), (1, 3), (2, 4), (5, 6)]);
        for strategy in [DanglingStrategy::LinkToAll, DanglingStrategy::SelfLoop] {
            let cfg = PageRankConfig {
                dangling: strategy,
                tolerance: 1e-13,
                ..Default::default()
            };
            let a = pagerank(&g, &cfg);
            let b = gauss_seidel(&g, &cfg);
            for (i, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
                assert!(
                    (x - y).abs() < 1e-7,
                    "{strategy:?} node {i}: power {x} vs gs {y}"
                );
            }
        }
    }

    #[test]
    fn matches_power_with_renormalize_strategy() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 2), (4, 5)]);
        let cfg = PageRankConfig {
            dangling: DanglingStrategy::RemoveAndRenormalize,
            tolerance: 1e-13,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-7, "power {x} vs gs {y}");
        }
    }

    #[test]
    fn converges_much_faster_on_chain_graphs() {
        // A directed cycle with a chord mixes slowly; a natural-order GS
        // sweep pushes rank down the whole chain at once.
        let n = 400u32;
        let mut edges: Vec<(u32, u32)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        edges.push((0, n / 2));
        let g = CsrGraph::from_edges(n as usize, &edges);
        let cfg = PageRankConfig {
            tolerance: 1e-10,
            max_iterations: 2000,
            ..Default::default()
        };
        let a = pagerank(&g, &cfg);
        let b = gauss_seidel(&g, &cfg);
        assert!(a.converged && b.converged);
        assert!(
            b.iterations * 5 < a.iterations,
            "GS took {} sweeps, power {}",
            b.iterations,
            a.iterations
        );
        for (x, y) in a.scores.iter().zip(&b.scores) {
            assert!((x - y).abs() < 1e-8);
        }
    }

    /// The textbook sweep: pull `x[u] * inv[u]` per in-link and take the
    /// residual over a copy of the previous iterate.
    fn two_read_sweeps(g: &CsrGraph, cfg: &PageRankConfig, warm: Option<&[f64]>) -> PageRankResult {
        let n = g.num_nodes();
        let inv = inv_out_degrees(g);
        let alpha = cfg.follow_prob;
        let teleport = (1.0 - alpha) / n as f64;
        let mut x = initial_vector(n, warm);
        let mut prev = vec![0.0; n];
        let mut residuals = Vec::new();
        let mut dangling_mass: f64 = (0..n).filter(|&u| inv[u] == 0.0).map(|u| x[u]).sum();
        let mut converged = false;
        while residuals.len() < cfg.max_iterations {
            prev.copy_from_slice(&x);
            for v in 0..n {
                let mut acc = 0.0;
                for &u in g.in_neighbors(v as u32) {
                    acc += x[u as usize] * inv[u as usize];
                }
                let dangling_share = match cfg.dangling {
                    DanglingStrategy::LinkToAll => alpha * dangling_mass / n as f64,
                    _ => 0.0,
                };
                let mut new_v = teleport + dangling_share + alpha * acc;
                if inv[v] == 0.0 {
                    if cfg.dangling == DanglingStrategy::SelfLoop {
                        new_v = (teleport + alpha * acc) / (1.0 - alpha);
                    }
                    dangling_mass += new_v - x[v];
                }
                x[v] = new_v;
            }
            let r: f64 = x.iter().zip(&prev).map(|(a, b)| (a - b).abs()).sum();
            residuals.push(r);
            if r < cfg.tolerance {
                converged = true;
                break;
            }
        }
        renormalize(&mut x);
        apply_scale(&mut x, cfg.scale);
        PageRankResult {
            scores: x,
            iterations: residuals.len(),
            converged,
            residuals,
        }
    }

    #[test]
    fn cached_shares_match_two_read_sweeps_bit_for_bit() {
        let g = random_graph(600, 2500, 17);
        let warm: Vec<f64> = (0..600).map(|i| 1.0 + (i % 7) as f64).collect();
        for dangling in [
            DanglingStrategy::LinkToAll,
            DanglingStrategy::SelfLoop,
            DanglingStrategy::RemoveAndRenormalize,
        ] {
            let cfg = PageRankConfig {
                dangling,
                ..Default::default()
            };
            for w in [None, Some(warm.as_slice())] {
                let a = gauss_seidel_warm(&g, &cfg, w);
                let b = two_read_sweeps(&g, &cfg, w);
                assert_eq!(a.iterations, b.iterations, "{dangling:?}");
                assert_eq!(a.converged, b.converged, "{dangling:?}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.residuals), bits(&b.residuals), "{dangling:?}");
                assert_eq!(bits(&a.scores), bits(&b.scores), "{dangling:?}");
            }
        }
    }

    #[test]
    fn empty_graph() {
        let r = gauss_seidel(&CsrGraph::from_edges(0, &[]), &PageRankConfig::default());
        assert!(r.scores.is_empty());
        assert!(r.converged);
    }

    #[test]
    fn warm_start_converges_to_cold_fixed_point_in_fewer_sweeps() {
        let g = random_graph(400, 2400, 11);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let cold = gauss_seidel(&g, &cfg);
        // perturb: a handful of extra edges between low-traffic nodes
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        edges.extend((0..10u32).map(|i| (380 + i, 100 + i)));
        let g2 = CsrGraph::from_edges(400, &edges);
        let cold2 = gauss_seidel(&g2, &cfg);
        let warm2 = gauss_seidel_warm(&g2, &cfg, Some(&cold.scores));
        assert!(warm2.converged);
        for (a, b) in cold2.scores.iter().zip(&warm2.scores) {
            assert!((a - b).abs() < 1e-9, "cold {a} vs warm {b}");
        }
        assert!(
            warm2.iterations <= cold2.iterations,
            "warm {} vs cold {}",
            warm2.iterations,
            cold2.iterations
        );
    }

    #[test]
    fn warm_start_rejects_degenerate_vectors() {
        let g = random_graph(50, 200, 13);
        let cfg = PageRankConfig {
            tolerance: 1e-12,
            ..Default::default()
        };
        let cold = gauss_seidel(&g, &cfg);
        for bad in [vec![0.0; 50], vec![1.0; 49], vec![f64::NAN; 50]] {
            let r = gauss_seidel_warm(&g, &cfg, Some(&bad));
            for (a, b) in cold.scores.iter().zip(&r.scores) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn probability_scale_sums_to_one() {
        let g = random_graph(100, 400, 9);
        let r = gauss_seidel(&g, &PageRankConfig::default());
        let sum: f64 = r.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
