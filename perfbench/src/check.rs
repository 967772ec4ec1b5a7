//! Output fingerprints for the correctness checks.

use fastbn_graph::{Pdag, UGraph};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn edges(&mut self, tag: u64, mut edges: Vec<(usize, usize)>) {
        edges.sort_unstable();
        self.word(tag);
        self.word(edges.len() as u64);
        for (u, v) in edges {
            self.word(u as u64);
            self.word(v as u64);
        }
    }
}

/// A hash of a learned skeleton and CPDAG: equal structures hash equal,
/// and any added, removed or re-oriented edge changes the hash.
pub fn structure_hash(skeleton: &UGraph, cpdag: &Pdag) -> u64 {
    let mut h = Fnv::new();
    h.word(skeleton.n() as u64);
    h.edges(1, skeleton.edges());
    h.edges(2, cpdag.directed_edges());
    h.edges(3, cpdag.undirected_edges());
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpdag(n: usize, directed: &[(usize, usize)], undirected: &[(usize, usize)]) -> Pdag {
        let mut p = Pdag::empty(n);
        for &(u, v) in directed {
            p.add_directed(u, v);
        }
        for &(u, v) in undirected {
            p.add_undirected(u, v);
        }
        p
    }

    #[test]
    fn hash_is_a_function_of_the_structure() {
        let skel = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let a = cpdag(4, &[(0, 1), (2, 1)], &[(2, 3)]);
        let same = cpdag(4, &[(2, 1), (0, 1)], &[(3, 2)]);
        assert_eq!(structure_hash(&skel, &a), structure_hash(&skel, &same));
    }

    #[test]
    fn hash_sees_every_edge_change() {
        let skel = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let base = structure_hash(&skel, &cpdag(4, &[(0, 1), (2, 1)], &[(2, 3)]));
        let reversed = cpdag(4, &[(1, 0), (2, 1)], &[(2, 3)]);
        let undirected = cpdag(4, &[(2, 1)], &[(0, 1), (2, 3)]);
        let more = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let wider = UGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        for other in [
            structure_hash(&skel, &reversed),
            structure_hash(&skel, &undirected),
            structure_hash(&more, &cpdag(4, &[(0, 1), (2, 1)], &[(2, 3)])),
            structure_hash(&wider, &cpdag(5, &[(0, 1), (2, 1)], &[(2, 3)])),
        ] {
            assert_ne!(base, other);
        }
    }
}
