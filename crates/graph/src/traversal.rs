//! Breadth-first traversal, shortest paths and connected components.

use crate::Graph;
use std::collections::VecDeque;

/// Unreachable marker returned by [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// Hop distances from `source` to every node (`UNREACHABLE` if disconnected).
///
/// # Examples
///
/// ```
/// use cp_graph::{Graph, traversal};
///
/// let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d[2], 2);
/// assert_eq!(d[3], traversal::UNREACHABLE);
/// ```
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &(v, _) in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Labels connected components; returns `(labels, component_count)`.
///
/// Labels are dense in `0..component_count` and assigned in order of the
/// smallest node index in each component.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = next;
        queue.push_back(start as u32);
        while let Some(u) = queue.pop_front() {
            for &(v, _) in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (labels, next as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_on_path_graph() {
        let g = Graph::from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let g = Graph::from_edges(5, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
    }

    #[test]
    fn connectivity_checks() {
        let count = |g: &Graph| connected_components(g).1;
        assert_eq!(count(&Graph::new(0)), 0);
        assert_eq!(count(&Graph::new(1)), 1);
        assert_eq!(count(&Graph::new(2)), 2);
        assert_eq!(count(&Graph::from_edges(2, &[(0, 1, 1.0)])), 1);
    }
}
