//! Quaternary fat-tree topology, as built from Elite4 switches.
//!
//! QsNetII machines are wired as k-ary n-trees (the paper's testbed is an
//! 8-node "dimension one quaternary fat tree" QS-8A). We model the topology
//! only as far as timing needs it: how many switch stages a message crosses
//! between two nodes, which is `2*l - 1` where `l` is the lowest tree level
//! at which the two nodes share a subtree.

/// A node (host) position in the fabric.
pub type NodeId = usize;

/// A k-ary fat tree over `nodes` hosts with the given switch radix.
#[derive(Clone, Debug)]
pub struct FatTree {
    radix: usize,
    nodes: usize,
    levels: u32,
}

impl FatTree {
    /// Build a fat tree. `radix` is the down-degree of each switch (4 for
    /// Elite4 quaternary trees); `nodes` is the host count.
    ///
    /// # Panics
    /// If `radix < 2` or `nodes == 0`.
    pub fn new(radix: usize, nodes: usize) -> Self {
        assert!(radix >= 2, "fat-tree radix must be >= 2");
        assert!(nodes > 0, "fat tree needs at least one node");
        let mut levels = 1u32;
        let mut span = radix;
        while span < nodes {
            span *= radix;
            levels += 1;
        }
        FatTree {
            radix,
            nodes,
            levels,
        }
    }

    /// The paper's testbed: eight nodes on a quaternary tree (QS-8A).
    pub fn qs8a() -> Self {
        FatTree::new(4, 8)
    }

    /// Host count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Switch down-degree.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of switch levels in the tree.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Lowest level at which `a` and `b` share a subtree (1 = same leaf
    /// switch). Returns 0 when `a == b`.
    pub fn nca_level(&self, a: NodeId, b: NodeId) -> u32 {
        assert!(a < self.nodes && b < self.nodes, "node out of range");
        if a == b {
            return 0;
        }
        let mut level = 1;
        let mut div = self.radix;
        while a / div != b / div {
            div *= self.radix;
            level += 1;
        }
        level
    }

    /// Switch stages a packet crosses from `a` to `b` (up to the nearest
    /// common ancestor and back down): `2*l - 1`. Zero for self-sends,
    /// which never leave the NIC.
    pub fn switch_hops(&self, a: NodeId, b: NodeId) -> u32 {
        match self.nca_level(a, b) {
            0 => 0,
            l => 2 * l - 1,
        }
    }

    /// Index of the level-`level` subtree (switch) containing `node`.
    /// Level 1 is the leaf switch; each level divides the node space by
    /// another factor of the radix.
    ///
    /// # Panics
    /// If `node` is out of range or `level == 0`.
    pub fn subtree(&self, node: NodeId, level: u32) -> usize {
        assert!(node < self.nodes, "node out of range");
        assert!(level >= 1, "subtree level starts at 1");
        node / self.radix.pow(level)
    }

    /// Number of switches at `level` (1 = leaf switches).
    pub fn switches_at(&self, level: u32) -> usize {
        assert!(level >= 1, "subtree level starts at 1");
        self.nodes.div_ceil(self.radix.pow(level))
    }

    /// Worst-case switch hops in this tree (diameter).
    pub fn diameter(&self) -> u32 {
        if self.nodes == 1 {
            0
        } else {
            2 * self.levels - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::Pcg32;

    #[test]
    fn qs8a_shape() {
        let t = FatTree::qs8a();
        assert_eq!(t.nodes(), 8);
        assert_eq!(t.levels(), 2);
        // same leaf switch
        assert_eq!(t.switch_hops(0, 3), 1);
        // across the top stage
        assert_eq!(t.switch_hops(0, 4), 3);
        assert_eq!(t.switch_hops(7, 1), 3);
        assert_eq!(t.switch_hops(5, 5), 0);
        assert_eq!(t.diameter(), 3);
    }

    #[test]
    fn subtree_indexing() {
        let t = FatTree::qs8a();
        assert_eq!(t.switches_at(1), 2);
        assert_eq!(t.subtree(0, 1), 0);
        assert_eq!(t.subtree(3, 1), 0);
        assert_eq!(t.subtree(4, 1), 1);
        assert_eq!(t.subtree(7, 1), 1);
        let t = FatTree::new(4, 64);
        assert_eq!(t.switches_at(1), 16);
        assert_eq!(t.switches_at(2), 4);
        assert_eq!(t.subtree(63, 2), 3);
        assert_eq!(t.subtree(17, 1), 4);
    }

    #[test]
    fn single_switch_tree() {
        let t = FatTree::new(4, 4);
        assert_eq!(t.levels(), 1);
        for a in 0..4 {
            for b in 0..4 {
                let expect = if a == b { 0 } else { 1 };
                assert_eq!(t.switch_hops(a, b), expect);
            }
        }
    }

    #[test]
    fn three_level_tree() {
        let t = FatTree::new(4, 64);
        assert_eq!(t.levels(), 3);
        assert_eq!(t.switch_hops(0, 1), 1);
        assert_eq!(t.switch_hops(0, 5), 3);
        assert_eq!(t.switch_hops(0, 63), 5);
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn out_of_range_panics() {
        FatTree::qs8a().switch_hops(0, 8);
    }

    #[test]
    fn hops_symmetric_and_bounded() {
        for case in 0..256 {
            let mut rng = Pcg32::new(case);
            let radix = rng.range(2, 6);
            let nodes = rng.range(1, 100);
            let seed = rng.next_u64();
            let t = FatTree::new(radix, nodes);
            let a = (seed as usize) % nodes;
            let b = (seed as usize / 7919) % nodes;
            let h = t.switch_hops(a, b);
            assert_eq!(h, t.switch_hops(b, a), "case {case}");
            assert!(h <= t.diameter(), "case {case}");
            assert_eq!(h == 0, a == b, "case {case}");
            // hop counts are always odd for distinct nodes (up then down)
            if a != b {
                assert_eq!(h % 2, 1, "case {case}");
            }
        }
    }
}
