//! A primal-only quad-edge pool for the divide-and-conquer triangulator.
//!
//! Each undirected edge is a pair of directed half-edges allocated at
//! consecutive indices, so `sym(e) == e ^ 1`. Per directed edge we store the
//! origin vertex and both ring pointers (`onext`, `oprev`), which lets the
//! Guibas–Stolfi primitives (`splice`, `connect`, `delete_edge`) and the
//! face-walking identity `lnext(e) = oprev(sym(e))` run without the dual
//! subdivision.

use crate::bitset::BitSet;

/// Sentinel for "no edge".
pub const NIL: u32 = u32::MAX;

/// One directed edge: origin vertex plus both origin-ring pointers, fused
/// into a single 12-byte record so every Guibas–Stolfi primitive touches
/// one cache line per half-edge instead of three parallel arrays. The two
/// halves of an undirected edge sit at consecutive slots, so `sym` loads
/// usually land on the same line too.
#[derive(Debug, Clone, Copy)]
struct EdgeRec {
    org: u32,
    onext: u32,
    oprev: u32,
}

/// Pool of directed edges.
#[derive(Debug, Default)]
pub struct EdgePool {
    recs: Vec<EdgeRec>,
    alive: BitSet,
    /// Reusable slots from deleted edges (pair indices).
    free: Vec<u32>,
}

impl EdgePool {
    /// Creates an empty pool with capacity for `n_edges` undirected edges.
    pub fn with_capacity(n_edges: usize) -> Self {
        let n = 2 * n_edges;
        let mut alive = BitSet::new();
        alive.reserve(n);
        EdgePool {
            recs: Vec::with_capacity(n),
            alive,
            free: Vec::new(),
        }
    }

    /// Number of live directed edges.
    pub fn live_count(&self) -> usize {
        self.alive.count_ones()
    }

    /// Total allocated directed-edge slots (including dead ones).
    pub fn slots(&self) -> usize {
        self.recs.len()
    }

    /// `true` if the directed edge is live.
    #[inline]
    pub fn is_alive(&self, e: u32) -> bool {
        self.alive.get(e as usize)
    }

    /// The oppositely-directed half of the same edge.
    #[inline]
    pub fn sym(&self, e: u32) -> u32 {
        e ^ 1
    }

    /// Origin vertex of `e`.
    #[inline]
    pub fn org(&self, e: u32) -> u32 {
        self.recs[e as usize].org
    }

    /// Destination vertex of `e`.
    #[inline]
    pub fn dest(&self, e: u32) -> u32 {
        self.recs[(e ^ 1) as usize].org
    }

    /// Next edge counter-clockwise around the origin of `e`.
    #[inline]
    pub fn onext(&self, e: u32) -> u32 {
        self.recs[e as usize].onext
    }

    /// Next edge clockwise around the origin of `e`.
    #[inline]
    pub fn oprev(&self, e: u32) -> u32 {
        self.recs[e as usize].oprev
    }

    /// Next edge counter-clockwise around the **left face** of `e`
    /// (`lnext(e).org == e.dest`).
    #[inline]
    pub fn lnext(&self, e: u32) -> u32 {
        self.oprev(self.sym(e))
    }

    /// Previous edge around the right face (`rprev(e).org == e.dest`).
    #[inline]
    pub fn rprev(&self, e: u32) -> u32 {
        self.onext(self.sym(e))
    }

    /// Allocates an isolated edge `a -> b`. Both half-edges form singleton
    /// origin rings.
    pub fn make_edge(&mut self, a: u32, b: u32) -> u32 {
        let e = if let Some(slot) = self.free.pop() {
            let e = slot;
            let s = (e ^ 1) as usize;
            self.recs[e as usize] = EdgeRec {
                org: a,
                onext: e,
                oprev: e,
            };
            self.recs[s] = EdgeRec {
                org: b,
                onext: e ^ 1,
                oprev: e ^ 1,
            };
            self.alive.set(e as usize, true);
            self.alive.set(s, true);
            e
        } else {
            let e = self.recs.len() as u32;
            self.recs.push(EdgeRec {
                org: a,
                onext: e,
                oprev: e,
            });
            self.recs.push(EdgeRec {
                org: b,
                onext: e + 1,
                oprev: e + 1,
            });
            self.alive.push(true);
            self.alive.push(true);
            e
        };
        debug_assert_eq!(e & 1, 0);
        e
    }

    /// Guibas–Stolfi splice restricted to origin rings: exchanges the
    /// `onext` successors of `a` and `b` (splitting one ring into two or
    /// merging two rings into one) and patches `oprev` back-pointers.
    pub fn splice(&mut self, a: u32, b: u32) {
        let an = self.recs[a as usize].onext;
        let bn = self.recs[b as usize].onext;
        self.recs[a as usize].onext = bn;
        self.recs[b as usize].onext = an;
        self.recs[an as usize].oprev = b;
        self.recs[bn as usize].oprev = a;
    }

    /// Adds a new edge from `dest(a)` to `org(b)` joining the two into a
    /// shared face, exactly as G-S `Connect`.
    pub fn connect(&mut self, a: u32, b: u32) -> u32 {
        let e = self.make_edge(self.dest(a), self.org(b));
        let ln = self.lnext(a);
        self.splice(e, ln);
        self.splice(self.sym(e), b);
        e
    }

    /// Detaches and frees an edge (both directions).
    pub fn delete_edge(&mut self, e: u32) {
        let op = self.oprev(e);
        self.splice(e, op);
        let s = self.sym(e);
        let ops = self.oprev(s);
        self.splice(s, ops);
        let base = e & !1;
        self.alive.set(base as usize, false);
        self.alive.set((base + 1) as usize, false);
        self.free.push(base);
    }

    /// Iterates over all live *directed* edges.
    pub fn live_directed_edges(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.recs.len() as u32).filter(move |&e| self.alive.get(e as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_edge_is_isolated() {
        let mut p = EdgePool::default();
        let e = p.make_edge(0, 1);
        assert_eq!(p.org(e), 0);
        assert_eq!(p.dest(e), 1);
        assert_eq!(p.onext(e), e);
        assert_eq!(p.oprev(e), e);
        let s = p.sym(e);
        assert_eq!(p.org(s), 1);
        assert_eq!(p.dest(s), 0);
        assert_eq!(p.onext(s), s);
    }

    #[test]
    fn splice_merges_and_splits_rings() {
        let mut p = EdgePool::default();
        // Two edges out of vertex 0.
        let a = p.make_edge(0, 1);
        let b = p.make_edge(0, 2);
        p.splice(a, b);
        // Now a and b share an origin ring of size 2.
        assert_eq!(p.onext(a), b);
        assert_eq!(p.onext(b), a);
        assert_eq!(p.oprev(a), b);
        assert_eq!(p.oprev(b), a);
        // Splice again: rings split back to singletons.
        p.splice(a, b);
        assert_eq!(p.onext(a), a);
        assert_eq!(p.onext(b), b);
    }

    #[test]
    fn connect_forms_triangle_face() {
        let mut p = EdgePool::default();
        // Path 0 -> 1 -> 2.
        let a = p.make_edge(0, 1);
        let b = p.make_edge(1, 2);
        p.splice(p.sym(a), b);
        // Close the triangle: edge from 2 to 0.
        let c = p.connect(b, a);
        assert_eq!(p.org(c), 2);
        assert_eq!(p.dest(c), 0);
        // Walk the left face of `a`: a(0->1), b(1->2), c(2->0).
        assert_eq!(p.lnext(a), b);
        assert_eq!(p.lnext(b), c);
        assert_eq!(p.lnext(c), a);
    }

    #[test]
    fn delete_edge_restores_rings() {
        let mut p = EdgePool::default();
        let a = p.make_edge(0, 1);
        let b = p.make_edge(1, 2);
        p.splice(p.sym(a), b);
        let c = p.connect(b, a);
        p.delete_edge(c);
        assert!(!p.is_alive(c));
        // The rings of a and b must be as before the connect.
        assert_eq!(p.lnext(a), b);
        assert_eq!(p.onext(p.sym(a)), b);
        // Slot reuse.
        let d = p.make_edge(5, 6);
        assert_eq!(d & !1, c & !1);
        assert!(p.is_alive(d));
    }

    #[test]
    fn live_edge_iteration() {
        let mut p = EdgePool::default();
        let a = p.make_edge(0, 1);
        let b = p.make_edge(2, 3);
        let c = p.make_edge(4, 5);
        p.delete_edge(b);
        let live: Vec<u32> = p.live_directed_edges().collect();
        assert_eq!(live, vec![a, a ^ 1, c, c ^ 1]);
        assert_eq!(p.live_count(), 4); // two undirected edges = 4 directed
    }
}
