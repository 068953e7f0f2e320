//! Graph and hypergraph algorithms for the clustered-placement toolkit.
//!
//! This crate is the algorithmic substrate under netlist clustering and GNN
//! feature extraction. It provides:
//!
//! - [`Graph`]: a simple undirected weighted graph with adjacency lists.
//! - [`Hypergraph`]: weighted hypergraphs plus
//!   [`Hypergraph::bounded_clique_expansion`] with the standard
//!   `1/(|e|-1)` edge weights (high-fanout nets as stars).
//! - Traversal and distance queries ([`traversal`]).
//! - Centralities used as GNN cell-level features ([`centrality`]):
//!   betweenness (Brandes), closeness, degree centrality, average
//!   neighborhood degree.
//! - Whole-graph metrics used as GNN cluster-level features ([`metrics`]):
//!   clustering coefficient, density, diameter/radius/eccentricity, global
//!   efficiency, greedy coloring.
//! - Global min-cut / edge connectivity via Stoer–Wagner ([`connectivity`]).
//! - Community detection ([`community`]): modularity, Louvain and Leiden,
//!   which serve as the clustering baselines of the paper's Tables 2 and 5.
//! - Multi-level coarsening ([`coarsen`]): deterministic heavy-edge
//!   matching plus a coarsen–uncoarsen wrapper so community detection
//!   stays tractable at 10⁵–10⁶ nodes.
//!
//! # Examples
//!
//! ```
//! use cp_graph::Graph;
//!
//! // A triangle plus a pendant vertex.
//! let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)]);
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.degree(2), 3);
//! let ecc = cp_graph::metrics::eccentricities(&g);
//! assert_eq!(ecc[3], 2);
//! ```

#![forbid(unsafe_code)]

pub mod centrality;
pub mod coarsen;
pub mod community;
pub mod connectivity;
pub mod graph;
pub mod hypergraph;
pub mod metrics;
pub mod traversal;

pub use crate::graph::Graph;
pub use crate::hypergraph::Hypergraph;
