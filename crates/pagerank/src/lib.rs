//! # qrank-rank — link-analysis ranking algorithms
//!
//! The popularity metrics the quality estimator is built on. Section 3 of
//! the paper uses PageRank as its popularity measure ("we could just as
//! easily substitute the number of links"), so this crate provides:
//!
//! * [`pagerank()`] — power-iteration PageRank with configurable damping,
//!   dangling-node strategy (including the paper's footnote-2 convention
//!   that a page with no outgoing links implicitly links to every page),
//!   tolerance, and score scale (probability, or the paper's
//!   one-per-page scale — "we used 1 as the initial PageRank value").
//!   The reference solver.
//! * [`gauss_seidel()`] — in-place Gauss–Seidel iteration; fewer sweeps to
//!   the same tolerance.
//! * [`solve_auto()`] — the one entry point the pipeline, the stage engine
//!   and the refresh engine use: warm-startable sequential Gauss–Seidel,
//!   whose bits do not depend on the thread budget.
//! * [`hits()`] — Kleinberg's Hub & Authority (\[13\]), the other
//!   second-generation metric the paper discusses.
//! * [`opic()`] — Abiteboul et al.'s adaptive on-line page importance
//!   (\[1\]): crawl-time importance without global iteration.
//! * [`indegree`] — raw link-count popularity, the paper's footnote-4
//!   alternative to PageRank inside the quality estimator.
//!
//! Power iteration and Gauss–Seidel reach the same fixed point (tested).
//!
//! ## Convention
//!
//! The paper writes `PR(p) = d + (1−d)·Σ PR(q)/c_q`, where `d` is the
//! probability of jumping to a random page. The dominant convention
//! (Brin & Page) is `PR(p) = (1−α)/N + α·Σ PR(q)/c_q` with `α` the
//! probability of *following* a link. This crate uses `α`
//! ([`PageRankConfig::follow_prob`], default 0.85); the paper's `d` is
//! `1 − α`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod gauss_seidel;
pub mod hits;
pub mod indegree;
pub mod opic;
pub mod power;
pub mod solver;

pub use config::{DanglingStrategy, PageRankConfig, ScoreScale};
pub use gauss_seidel::{gauss_seidel, gauss_seidel_warm};
pub use hits::{hits, HitsResult};
pub use indegree::{indegree_scores, normalized_indegree};
pub use opic::{opic, OpicPolicy, OpicResult};
pub use power::{pagerank, pagerank_warm, PageRankResult};
pub use solver::{set_thread_budget, solve_auto, thread_budget};
