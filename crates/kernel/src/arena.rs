//! The vertex arena and the global-id invariant.
//!
//! **Global-id invariant** (the identity twin of the decoupling
//! invariant): two points that are bitwise-identical after negative-zero
//! normalization receive the *same* [`GlobalVertexId`], no matter which
//! layer interned them first; and a point interned once keeps its id for
//! the lifetime of the arena. Interface points between subdomains are
//! bitwise-identical by the decoupling invariant, so carrying their ids
//! through decompose → mesh → merge makes interface deduplication an
//! array lookup instead of a coordinate-bit hash.

use adm_geom::point::{canonical_bits, canonical_point, Point2};
use std::collections::HashMap;

/// A stable identity for a vertex shared across pipeline layers.
///
/// Ids are dense indices into the arena that minted them, so consumers
/// may use `id.index()` for `Vec`-based side tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalVertexId(pub u32);

impl GlobalVertexId {
    /// Sentinel raw value meaning "no global identity".
    pub const NONE_RAW: u32 = u32::MAX;

    /// The id as a dense array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw `u32` payload (never [`Self::NONE_RAW`] for a real id).
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Append-only store of canonical vertex coordinates with exact-coordinate
/// interning.
///
/// The arena is built mutably during pipeline setup (cloud points, border
/// loops, near-body rectangle), then frozen behind an `Arc` and shared by
/// every meshing task — tasks carry id slices plus the handle instead of
/// cloned `Vec<Vec<Point2>>` copies of the geometry.
#[derive(Debug, Clone, Default)]
pub struct MeshArena {
    points: Vec<Point2>,
    index: HashMap<(u64, u64), u32>,
}

impl MeshArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty arena with room for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        MeshArena {
            points: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
        }
    }

    /// Interns `p`, returning its stable id. Duplicate coordinates (after
    /// negative-zero normalization) return the id minted first.
    pub fn intern(&mut self, p: Point2) -> GlobalVertexId {
        let key = canonical_bits(p);
        match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => GlobalVertexId(*e.get()),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.points.len() as u32;
                self.points.push(canonical_point(p));
                e.insert(id);
                GlobalVertexId(id)
            }
        }
    }

    /// Interns every point of `pts` in order; `out[i]` is the id of
    /// `pts[i]` (duplicates map to the first occurrence's id).
    pub fn intern_all(&mut self, pts: &[Point2]) -> Vec<GlobalVertexId> {
        pts.iter().map(|&p| self.intern(p)).collect()
    }

    /// The id of an already-interned point, if any.
    pub fn id_of(&self, p: Point2) -> Option<GlobalVertexId> {
        self.index
            .get(&canonical_bits(p))
            .map(|&i| GlobalVertexId(i))
    }

    /// Ids of a polyline of already-interned points.
    ///
    /// # Panics
    /// Panics if any point was never interned — a broken decoupling
    /// invariant, not a recoverable condition.
    pub fn ids_of(&self, pts: &[Point2]) -> Vec<GlobalVertexId> {
        pts.iter()
            .map(|&p| {
                self.id_of(p)
                    .unwrap_or_else(|| panic!("point ({}, {}) was never interned", p.x, p.y))
            })
            .collect()
    }

    /// The canonical coordinates of `id`.
    #[inline]
    pub fn point(&self, id: GlobalVertexId) -> Point2 {
        self.points[id.index()]
    }

    /// All canonical points, indexed by id.
    #[inline]
    pub fn points(&self) -> &[Point2] {
        &self.points
    }

    /// Number of distinct points interned.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when no point has been interned.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut a = MeshArena::new();
        let i0 = a.intern(p(0.5, 1.5));
        let i1 = a.intern(p(2.0, -3.0));
        let i2 = a.intern(p(0.5, 1.5));
        assert_eq!(i0, i2);
        assert_ne!(i0, i1);
        assert_eq!((i0.raw(), i1.raw()), (0, 1));
        assert_eq!(a.len(), 2);
        assert_eq!(a.point(i1), p(2.0, -3.0));
    }

    #[test]
    fn negative_zero_unifies_with_positive_zero() {
        let mut a = MeshArena::new();
        let pos = a.intern(p(1.0, 0.0));
        let neg = a.intern(p(1.0, -0.0));
        assert_eq!(pos, neg, "-0.0 and 0.0 must share one identity");
        // The stored coordinate is the normalized one.
        assert_eq!(a.point(pos).y.to_bits(), 0.0f64.to_bits());
        let both = a.intern(p(-0.0, -0.0));
        assert_eq!(a.point(both).x.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn intern_all_maps_duplicates_to_first() {
        let mut a = MeshArena::new();
        let ids = a.intern_all(&[p(0.0, 0.0), p(1.0, 0.0), p(0.0, 0.0)]);
        assert_eq!(ids[0], ids[2]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.ids_of(&[p(1.0, 0.0)]), vec![ids[1]]);
        let resolved: Vec<Point2> = ids.iter().map(|&id| a.point(id)).collect();
        assert_eq!(resolved, vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 0.0)]);
    }

    #[test]
    fn id_of_unknown_point_is_none() {
        let a = MeshArena::new();
        assert!(a.id_of(p(9.0, 9.0)).is_none());
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "never interned")]
    fn ids_of_missing_point_panics() {
        let a = MeshArena::new();
        let _ = a.ids_of(&[p(1.0, 2.0)]);
    }
}
