//! Per-dimension free-capacity index over the fleet.
//!
//! A segment tree keyed by PM id: each leaf holds a PM's availability flag
//! and per-dimension headroom, each internal node the component-wise
//! *maximum* headroom (and the OR of availability) of its subtree. The
//! per-dimension maximum is a necessary condition for a subtree to contain
//! a host that fits a request, so a first-fit descent prunes whole id
//! ranges and finds the **lowest-id available PM that fits** — the exact
//! PM a linear `find(can_host)` scan would pick — in O(log M) on typical
//! fleets instead of O(M).
//!
//! The maxima of different dimensions may come from different PMs, so a
//! passing internal node can still turn out empty; the descent then
//! backtracks to the right sibling. That keeps the test conservative
//! (never skips a feasible PM) at a worst-case cost that degenerates
//! toward the linear scan only on adversarially fragmented fleets.

use crate::resources::{ResourceVector, MAX_DIMS};

/// One segment-tree node: subtree-wide availability and per-dimension
/// maximum headroom among available PMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Node {
    avail: bool,
    free: [u64; MAX_DIMS],
}

impl Node {
    /// Merge of two children.
    fn join(a: Node, b: Node) -> Node {
        let mut free = [0u64; MAX_DIMS];
        for (i, f) in free.iter_mut().enumerate() {
            *f = a.free[i].max(b.free[i]);
        }
        Node {
            avail: a.avail || b.avail,
            free,
        }
    }

    /// Necessary (for internal nodes) / exact (for leaves) fit test.
    fn admits(&self, req: &ResourceVector) -> bool {
        self.avail && (0..req.k()).all(|i| self.free[i] >= req.get(i))
    }
}

/// First-fit index over `n` PMs; see the module docs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CapacityIndex {
    /// Number of indexed PMs.
    n: usize,
    /// Leaf count: `n` rounded up to a power of two (0 when `n == 0`).
    size: usize,
    /// `2 * size` nodes; node 1 is the root, leaves start at `size`.
    nodes: Vec<Node>,
}

impl CapacityIndex {
    /// Builds the index from `(available, headroom)` per PM, in id order.
    pub fn build<I>(items: I) -> Self
    where
        I: IntoIterator<Item = (bool, ResourceVector)>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        let n = items.len();
        if n == 0 {
            return CapacityIndex::default();
        }
        let size = n.next_power_of_two();
        let mut nodes = vec![Node::default(); 2 * size];
        for (i, (avail, headroom)) in items.enumerate() {
            nodes[size + i] = Self::leaf(avail, &headroom);
        }
        for i in (1..size).rev() {
            nodes[i] = Node::join(nodes[2 * i], nodes[2 * i + 1]);
        }
        CapacityIndex { n, size, nodes }
    }

    fn leaf(avail: bool, headroom: &ResourceVector) -> Node {
        let mut free = [0u64; MAX_DIMS];
        if avail {
            free[..headroom.k()].copy_from_slice(headroom.as_slice());
        }
        Node { avail, free }
    }

    /// Number of indexed PMs.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when no PMs are indexed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Updates PM `idx`'s availability and headroom, refreshing the O(log M)
    /// path to the root.
    pub fn set(&mut self, idx: usize, avail: bool, headroom: &ResourceVector) {
        assert!(idx < self.n, "pm index {idx} out of bounds ({})", self.n);
        let mut i = self.size + idx;
        self.nodes[i] = Self::leaf(avail, headroom);
        while i > 1 {
            i /= 2;
            self.nodes[i] = Node::join(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// Lowest index of an available PM whose headroom covers `req` in every
    /// dimension — identical to a linear first-fit `find(can_host)` scan.
    pub fn first_fit(&self, req: &ResourceVector) -> Option<usize> {
        if self.n == 0 || !self.nodes[1].admits(req) {
            return None;
        }
        let mut i = 1usize;
        // Descend left-first; an admitting internal node guarantees at
        // least one admitting leaf is NOT guaranteed (maxima may mix PMs),
        // so on a dead end climb back up to the nearest untried right
        // sibling.
        loop {
            if i >= self.size {
                let idx = i - self.size;
                debug_assert!(self.nodes[i].admits(req));
                return Some(idx);
            }
            if self.nodes[2 * i].admits(req) {
                i *= 2;
            } else if self.nodes[2 * i + 1].admits(req) {
                i = 2 * i + 1;
            } else {
                // Dead end: climb until we sit in a left child whose right
                // sibling is untried and admits, then descend there.
                loop {
                    if i == 1 {
                        return None;
                    }
                    let parent = i / 2;
                    if i % 2 == 0 && self.nodes[2 * parent + 1].admits(req) {
                        i = 2 * parent + 1;
                        break;
                    }
                    i = parent;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rv(c: u64, m: u64) -> ResourceVector {
        ResourceVector::cpu_mem(c, m)
    }

    #[test]
    fn empty_index() {
        let idx = CapacityIndex::default();
        assert!(idx.is_empty());
        assert_eq!(idx.first_fit(&rv(1, 1)), None);
    }

    #[test]
    fn finds_lowest_fitting_index() {
        let idx = CapacityIndex::build(vec![
            (true, rv(1, 512)),
            (true, rv(4, 2_048)),
            (true, rv(8, 8_192)),
        ]);
        assert_eq!(idx.first_fit(&rv(1, 100)), Some(0));
        assert_eq!(idx.first_fit(&rv(2, 100)), Some(1));
        assert_eq!(idx.first_fit(&rv(5, 100)), Some(2));
        assert_eq!(idx.first_fit(&rv(9, 100)), None);
    }

    #[test]
    fn unavailable_pms_are_skipped_even_for_zero_requests() {
        let idx = CapacityIndex::build(vec![(false, rv(8, 8_192)), (true, rv(0, 0))]);
        assert_eq!(idx.first_fit(&rv(0, 0)), Some(1));
        assert_eq!(idx.first_fit(&rv(1, 0)), None);
    }

    #[test]
    fn joint_fit_requires_one_pm_covering_all_dims() {
        // Per-dimension maxima come from different PMs: cpu-rich pm0,
        // mem-rich pm1. A request needing both must be rejected.
        let idx = CapacityIndex::build(vec![(true, rv(8, 100)), (true, rv(1, 8_192))]);
        assert_eq!(idx.first_fit(&rv(8, 100)), Some(0));
        assert_eq!(idx.first_fit(&rv(1, 200)), Some(1));
        assert_eq!(idx.first_fit(&rv(2, 200)), None, "no single PM covers both");
    }

    #[test]
    fn set_updates_are_visible() {
        let mut idx = CapacityIndex::build(vec![(true, rv(4, 4_096)); 5]);
        assert_eq!(idx.first_fit(&rv(4, 1)), Some(0));
        idx.set(0, true, &rv(0, 4_096));
        assert_eq!(idx.first_fit(&rv(4, 1)), Some(1));
        idx.set(1, false, &rv(0, 0));
        assert_eq!(idx.first_fit(&rv(4, 1)), Some(2));
        idx.set(0, true, &rv(4, 4_096));
        assert_eq!(idx.first_fit(&rv(4, 1)), Some(0));
    }

    #[test]
    fn matches_linear_scan_on_synthetic_fleet() {
        // Deterministic pseudo-random fleet; compare against brute force.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pms: Vec<(bool, ResourceVector)> = (0..67)
            .map(|_| {
                let avail = next() % 4 != 0;
                (avail, rv(next() % 9, next() % 4_096))
            })
            .collect();
        let mut idx = CapacityIndex::build(pms.clone());
        for probe in 0..200 {
            let req = rv(probe % 10, (probe * 37) % 5_000);
            let brute = pms
                .iter()
                .position(|(a, h)| *a && req.get(0) <= h.get(0) && req.get(1) <= h.get(1));
            assert_eq!(idx.first_fit(&req), brute, "probe {probe}");
        }
        // Mutate and re-check.
        for i in 0..pms.len() {
            if i % 3 == 0 {
                idx.set(i, true, &rv(9, 9_000));
            }
        }
        assert_eq!(idx.first_fit(&rv(9, 8_999)), Some(0));
    }
}
