//! Both PageRank solvers agree on realistic (simulated-crawl) graphs, and
//! the ranking substrate behaves sanely on web-shaped inputs.

use qrank::graph::generators::{barabasi_albert, site_structured, SiteWebParams};
use qrank::rank::{gauss_seidel, pagerank, PageRankConfig};
use qrank::sim::{Crawler, SimConfig, World};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn crawl_graph(seed: u64) -> qrank::graph::CsrGraph {
    let cfg = SimConfig {
        num_users: 400,
        num_sites: 8,
        visit_ratio: 1.5,
        page_birth_rate: 20.0,
        dt: 0.1,
        seed,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    world.run_until(4.0);
    Crawler::default().crawl(&world, 4.0).expect("crawl").graph
}

#[test]
fn all_solvers_agree_on_simulated_crawl() {
    let g = crawl_graph(41);
    let cfg = PageRankConfig {
        tolerance: 1e-12,
        ..Default::default()
    };
    let reference = pagerank(&g, &cfg);
    assert!(reference.converged);

    let gs = gauss_seidel(&g, &cfg);
    for (i, (a, b)) in reference.scores.iter().zip(&gs.scores).enumerate() {
        assert!((a - b).abs() < 1e-6, "gauss-seidel node {i}: {a} vs {b}");
    }
}

#[test]
fn site_roots_earn_high_pagerank() {
    // navigation structure funnels rank to roots; the top of the ranking
    // should be dominated by site roots in a young web
    let cfg = SimConfig {
        num_users: 400,
        num_sites: 10,
        visit_ratio: 1.5,
        page_birth_rate: 20.0,
        dt: 0.1,
        seed: 43,
        ..Default::default()
    };
    let mut world = World::bootstrap(cfg).expect("bootstrap");
    world.run_until(3.0);
    let snap = Crawler::default().crawl(&world, 3.0).expect("crawl");
    let pr = pagerank(&snap.graph, &PageRankConfig::default());
    let ranking = pr.ranking();
    let roots: std::collections::HashSet<u64> =
        world.site_roots().iter().map(|&r| r as u64).collect();
    let top10_roots = ranking
        .iter()
        .take(10)
        .filter(|&&n| roots.contains(&snap.pages()[n as usize].0))
        .count();
    assert!(top10_roots >= 5, "only {top10_roots} roots in the top 10");
}

#[test]
fn pagerank_scale_invariance_between_conventions() {
    // paper-style scores are exactly N times probability-style scores,
    // so ratios like dPR/PR are identical under either convention
    let g = crawl_graph(47);
    let prob = pagerank(&g, &PageRankConfig::default());
    let paper = pagerank(&g, &PageRankConfig::paper_style(0.15));
    let n = g.num_nodes() as f64;
    for (p, q) in prob.scores.iter().zip(&paper.scores) {
        assert!((p * n - q).abs() < 1e-8);
    }
}

#[test]
fn generators_feed_rankers() {
    let mut rng = StdRng::seed_from_u64(53);
    let ba = barabasi_albert(2_000, 3, &mut rng);
    let r = pagerank(&ba, &PageRankConfig::default());
    assert!(r.converged);
    // preferential attachment: early nodes accumulate rank
    let early_mean: f64 = r.scores[..50].iter().sum::<f64>() / 50.0;
    let late_mean: f64 = r.scores[1950..].iter().sum::<f64>() / 50.0;
    assert!(
        early_mean > 3.0 * late_mean,
        "rich-get-richer: early {early_mean} vs late {late_mean}"
    );

    let web = site_structured(&SiteWebParams::default(), &mut rng);
    let r = pagerank(&web.graph, &PageRankConfig::default());
    assert!(r.converged);
    let sum: f64 = r.scores.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
}
