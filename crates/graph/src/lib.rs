//! # qrank-graph — directed web-graph substrate
//!
//! This crate provides the graph machinery that the rest of the `qrank`
//! workspace is built on. The reproduction target (Cho & Adams, *Page
//! Quality: In Search of an Unbiased Web Ranking*, SIGMOD 2005) works on
//! **snapshots of an evolving web graph**: the paper downloads 154 web
//! sites four times over six months, intersects the page sets, and
//! computes PageRank on each snapshot's subgraph. Everything needed for
//! that protocol lives here:
//!
//! * [`GraphBuilder`] / [`CsrGraph`] — construction and a compact
//!   compressed-sparse-row representation with both out- and in-adjacency,
//!   sized for millions of edges (`u32` node ids, contiguous arrays).
//! * [`DynamicGraph`] — a timestamped edge/node log supporting
//!   "what did the web look like at time *t*" queries, the substrate for
//!   snapshotting a simulated web.
//! * [`Snapshot`] / [`SnapshotSeries`] — externally-identified page sets
//!   captured at specific times, with the paper's *common-page
//!   intersection* and consistent relabeling across snapshots.
//! * [`traversal`], [`scc`], [`bowtie`], [`distance`] — BFS/DFS, Tarjan
//!   strongly connected components, the Broder et al. bow-tie
//!   decomposition, and shortest-path/diameter surveys, all referenced in
//!   the paper's related work.
//! * [`stats`] — degree distributions and power-law exponent fits (the
//!   paper cites the power-law in-degree structure of the web).
//! * [`generators`] — Erdős–Rényi, Barabási–Albert preferential
//!   attachment, the Kleinberg copy model, and a site-structured web
//!   generator mirroring the paper's 154-site corpus.
//! * [`io`] — text edge-list and binary serialization for graphs and
//!   snapshot series.
//!
//! ## Quick example
//!
//! ```
//! use qrank_graph::{GraphBuilder, CsrGraph};
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(0, 2);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g: CsrGraph = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.out_neighbors(0), &[1, 2]);
//! assert_eq!(g.in_degree(2), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod bowtie;
pub mod builder;
pub mod clustering;
pub mod csr;
pub mod distance;
pub mod dynamic;
pub mod error;
pub mod fingerprint;
pub mod generators;
pub mod io;
pub mod scc;
pub mod snapshot;
pub mod stats;
pub mod traversal;

pub use align::{restrict_snapshots, AlignmentTracker, Realignment};
pub use bowtie::{BowTie, BowTieRegion};
pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dynamic::{DynamicGraph, EdgeEvent};
pub use error::GraphError;
pub use fingerprint::{pages_fingerprint, Fingerprinter};
pub use snapshot::{PageId, PageSet, Snapshot, SnapshotSeries};

/// Node identifier within a single [`CsrGraph`].
///
/// Nodes are dense indices `0..num_nodes`. `u32` keeps adjacency arrays
/// compact (the paper's largest graph is 2.7M pages; `u32` covers 4.2B).
pub type NodeId = u32;
