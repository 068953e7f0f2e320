//! Logical hierarchy tree (module-instance tree).
//!
//! Every cell in a [`crate::Netlist`] belongs to exactly one tree node — the
//! deepest module instance containing it. Algorithm 2 of the paper builds a
//! dendrogram over this tree.

use crate::ids::HierNodeId;

/// One node of the hierarchy tree (a module instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierNode {
    /// Instance name (not the full path).
    pub name: String,
    /// Parent node (`None` for the root).
    pub parent: Option<HierNodeId>,
    /// Child module instances.
    pub children: Vec<HierNodeId>,
    /// Depth from the root (root = 0).
    pub depth: u32,
}

/// The logical hierarchy tree of a design.
///
/// # Examples
///
/// ```
/// use cp_netlist::HierTree;
///
/// let mut tree = HierTree::new("top");
/// let core = tree.add_child(HierTree::ROOT, "u_core");
/// let alu = tree.add_child(core, "u_alu");
/// assert_eq!(tree.path(alu), "top/u_core/u_alu");
/// assert_eq!(tree.node(alu).depth, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierTree {
    nodes: Vec<HierNode>,
}

impl HierTree {
    /// The root node id.
    pub const ROOT: HierNodeId = HierNodeId(0);

    /// Creates a tree holding only the root (the top module).
    pub fn new(top_name: impl Into<String>) -> Self {
        Self {
            nodes: vec![HierNode {
                name: top_name.into(),
                parent: None,
                children: Vec::new(),
                depth: 0,
            }],
        }
    }

    /// Adds a child module instance under `parent`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn add_child(&mut self, parent: HierNodeId, name: impl Into<String>) -> HierNodeId {
        let depth = self.nodes[parent.index()].depth + 1;
        let id = HierNodeId(self.nodes.len() as u32);
        self.nodes.push(HierNode {
            name: name.into(),
            parent: Some(parent),
            children: Vec::new(),
            depth,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// The node with the given id.
    pub fn node(&self, id: HierNodeId) -> &HierNode {
        &self.nodes[id.index()]
    }

    /// Number of nodes, root included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false`: a tree always holds at least the root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Full hierarchical path, `/`-separated from the root.
    pub fn path(&self, id: HierNodeId) -> String {
        let mut parts = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            parts.push(self.nodes[c.index()].name.as_str());
            cur = self.nodes[c.index()].parent;
        }
        parts.reverse();
        parts.join("/")
    }

    /// The ancestor of `id` at the given depth (or `id` itself if its depth
    /// is already `<= depth`).
    pub fn ancestor_at_depth(&self, id: HierNodeId, depth: u32) -> HierNodeId {
        let mut cur = id;
        while self.nodes[cur.index()].depth > depth {
            // Only the root (depth 0) lacks a parent, and 0 is never > depth.
            let Some(p) = self.nodes[cur.index()].parent else {
                break;
            };
            cur = p;
        }
        cur
    }

    /// Maximum node depth.
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// All node ids in creation (pre-order-compatible) order.
    pub fn ids(&self) -> impl Iterator<Item = HierNodeId> + '_ {
        (0..self.nodes.len() as u32).map(HierNodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (HierTree, HierNodeId, HierNodeId, HierNodeId) {
        let mut t = HierTree::new("top");
        let a = t.add_child(HierTree::ROOT, "a");
        let b = t.add_child(HierTree::ROOT, "b");
        let aa = t.add_child(a, "aa");
        (t, a, b, aa)
    }

    #[test]
    fn structure() {
        let (t, a, b, aa) = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.node(a).depth, 1);
        assert_eq!(t.node(aa).depth, 2);
        assert_eq!(t.node(HierTree::ROOT).children, vec![a, b]);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn paths() {
        let (t, _, b, aa) = sample();
        assert_eq!(t.path(HierTree::ROOT), "top");
        assert_eq!(t.path(b), "top/b");
        assert_eq!(t.path(aa), "top/a/aa");
    }

    #[test]
    fn ancestors() {
        let (t, a, _, aa) = sample();
        assert_eq!(t.ancestor_at_depth(aa, 1), a);
        assert_eq!(t.ancestor_at_depth(aa, 0), HierTree::ROOT);
        assert_eq!(t.ancestor_at_depth(aa, 5), aa);
    }
}
