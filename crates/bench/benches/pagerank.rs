//! Criterion micro-benchmarks for the ranking solvers.
//!
//! Measures the PageRank solvers from `qrank-rank` — power iteration,
//! Gauss–Seidel, and `solve_auto`, the entry point the pipeline uses —
//! on Barabási–Albert graphs (power-law in-degree, like the web).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qrank_graph::generators::barabasi_albert;
use qrank_rank::{gauss_seidel, hits, pagerank, pagerank_warm, solve_auto, PageRankConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank_solvers");
    group.sample_size(10);
    for &n in &[10_000usize, 50_000] {
        let mut rng = StdRng::seed_from_u64(1);
        let g = barabasi_albert(n, 5, &mut rng);
        let cfg = PageRankConfig {
            tolerance: 1e-9,
            ..Default::default()
        };

        group.bench_with_input(BenchmarkId::new("power", n), &g, |b, g| {
            b.iter(|| black_box(pagerank(g, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("gauss_seidel", n), &g, |b, g| {
            b.iter(|| black_box(gauss_seidel(g, &cfg)))
        });
        group.bench_with_input(BenchmarkId::new("auto", n), &g, |b, g| {
            b.iter(|| black_box(solve_auto(g, &cfg, None)))
        });
    }
    group.finish();
}

fn bench_warm_start(c: &mut Criterion) {
    let mut group = c.benchmark_group("pagerank_warm_start");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    let g = barabasi_albert(50_000, 5, &mut rng);
    let cfg = PageRankConfig {
        tolerance: 1e-9,
        ..Default::default()
    };
    let prev = pagerank(&g, &cfg);
    // next "snapshot": small edge delta
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for i in 0..200u32 {
        edges.push((49_000 + i, i));
    }
    let g2 = qrank_graph::CsrGraph::from_edges(50_000, &edges);
    group.bench_function("cold_50k", |b| b.iter(|| black_box(pagerank(&g2, &cfg))));
    group.bench_function("warm_50k", |b| {
        b.iter(|| black_box(pagerank_warm(&g2, &cfg, Some(&prev.scores))))
    });
    group.finish();
}

fn bench_hits(c: &mut Criterion) {
    let mut group = c.benchmark_group("hits");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let g = barabasi_albert(10_000, 5, &mut rng);
    group.bench_function("hits_10k", |b| b.iter(|| black_box(hits(&g, 1e-9, 200))));
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_warm_start, bench_hits);
criterion_main!(benches);
