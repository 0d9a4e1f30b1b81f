//! Boundary-layer mesh assembly (paper §II.C/§II.D, merge side).
//!
//! The combined point cloud of all elements' boundary layers is
//! decomposed with the projection-based coarse partitioner and each leaf
//! is triangulated independently — those are tasks of the pipeline's
//! task tree. This module is what happens to their output: the exact
//! global Delaunay triangulation is reassembled from the per-leaf
//! triangle lists, the surface and outer-border constraints are applied,
//! and the airfoil interiors / exterior are carved away.

use adm_blayer::BoundaryLayer;
use adm_delaunay::cdt::{carve, insert_constraint};
use adm_delaunay::mesh::Mesh;
use adm_geom::point::Point2;
use adm_kernel::{GlobalVertexId, MeshArena};

/// Reassembles, constrains and carves the boundary-layer mesh from the
/// leaves' triangle lists (arena-id triples, in task-tree order).
///
/// The vertex array *is* `arena`'s canonical point list — triangle
/// triples already index it, and every vertex is stamped with its arena
/// id — so there is no coordinate-bit rebuild here: the border loops
/// resolve to vertex ids through the arena. The leaves' lists are
/// concatenated: no triangle is reported by two leaves. Two leaves
/// diverge at one cut, where one keeps circumcentres with `coord < at`
/// and the other those with `coord >= at`, and both test the same
/// canonical circumcentre bits (`adm_partition::triangulate_all`
/// asserts this). A duplicate would fail `Mesh::from_triangles`'
/// manifold proof. `hole_seeds` are points strictly inside each element.
pub(crate) fn assemble_bl_mesh(
    arena: &MeshArena,
    layers: &[BoundaryLayer],
    hole_seeds: &[Point2],
    leaf_tris: impl IntoIterator<Item = Vec<[u32; 3]>>,
) -> Mesh {
    let all_tris: Vec<[u32; 3]> = leaf_tris.into_iter().flatten().collect();
    let mut mesh = Mesh::from_triangles(arena.points().to_vec(), all_tris);
    let prefix: Vec<GlobalVertexId> = (0..arena.len() as u32).map(GlobalVertexId).collect();
    mesh.stamp_prefix(&prefix);
    let lookup = |p: Point2| -> u32 {
        arena
            .id_of(p)
            .expect("border point missing from cloud")
            .raw()
    };
    for l in layers {
        for ring in [&l.surface[..], l.outer_border()] {
            for i in 0..ring.len() {
                let (a, b) = (lookup(ring[i]), lookup(ring[(i + 1) % ring.len()]));
                if a != b {
                    insert_constraint(&mut mesh, a, b).expect("boundary-layer constraint failed");
                }
            }
        }
    }
    carve(&mut mesh, hole_seeds);
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_airfoil::{naca0012_domain, Pslg};
    use adm_blayer::{build_boundary_layer, BlParams, Geometric};
    use adm_geom::polygon::contains_point;
    use adm_partition::{decompose, triangulate_leaf, DecomposeParams, Subdomain};

    /// Decomposes one layer's cloud into `subdomains` leaves, triangulates
    /// each and assembles the result.
    fn bl_mesh(layer: BoundaryLayer, seeds: &[Point2], subdomains: usize) -> Mesh {
        bl_mesh_with(layer, seeds, subdomains, 1)
    }

    /// [`bl_mesh`], with the first leaf's triangle list handed to the
    /// assembly `first_leaf_copies` times.
    fn bl_mesh_with(
        layer: BoundaryLayer,
        seeds: &[Point2],
        subdomains: usize,
        first_leaf_copies: usize,
    ) -> Mesh {
        let cloud = layer.all_points().to_vec();
        let mut arena = MeshArena::with_capacity(cloud.len());
        let ids = arena.intern_all(&cloud);
        let leaves = decompose(
            Subdomain::root_with_ids(&cloud, &ids),
            &DecomposeParams::for_subdomain_count(subdomains),
        )
        .leaves;
        assert!(
            leaves.len() >= subdomains / 2,
            "got {} leaves",
            leaves.len()
        );
        let first = triangulate_leaf(&leaves[0]);
        let copies = std::iter::repeat_n(first, first_leaf_copies);
        let rest = leaves[1..].iter().map(triangulate_leaf);
        assemble_bl_mesh(&arena, &[layer], seeds, copies.chain(rest))
    }

    /// A NACA 0012 domain and its boundary layer.
    fn naca0012_layer() -> (Pslg, BoundaryLayer) {
        let domain = naca0012_domain(50, 30.0);
        let growth = Geometric::new(5e-4, 1.3);
        let bl = build_boundary_layer(
            &domain.loops[0].points,
            &growth,
            &BlParams {
                height: 0.04,
                ..Default::default()
            },
        );
        (domain, bl)
    }

    #[test]
    #[should_panic(expected = "non-manifold edge")]
    fn a_triangle_reported_twice_fails_assembly() {
        let (domain, bl) = naca0012_layer();
        bl_mesh_with(bl, &domain.hole_seeds(), 16, 2);
    }

    #[test]
    fn naca0012_bl_mesh_is_carved_and_conforming() {
        let (domain, bl) = naca0012_layer();
        let outer_border = bl.outer_border().to_vec();
        let mesh = &bl_mesh(bl, &domain.hole_seeds(), 16);
        mesh.check_consistency();
        assert!(mesh.num_triangles() > 1000);
        // No triangle centroid inside the airfoil.
        let surf = &domain.loops[0].points;
        for t in mesh.live_triangles() {
            let tri = mesh.tri(t as usize);
            let c = Point2::new(
                (mesh.vertex(tri[0] as usize).x
                    + mesh.vertex(tri[1] as usize).x
                    + mesh.vertex(tri[2] as usize).x)
                    / 3.0,
                (mesh.vertex(tri[0] as usize).y
                    + mesh.vertex(tri[1] as usize).y
                    + mesh.vertex(tri[2] as usize).y)
                    / 3.0,
            );
            assert!(!contains_point(surf, c), "triangle inside the airfoil");
            // And inside the outer border.
            assert!(
                contains_point(&outer_border, c),
                "triangle outside the boundary layer"
            );
        }
    }

    #[test]
    fn anisotropic_elements_exist_near_the_wall() {
        // The whole point of the exercise: near-wall triangles must be
        // strongly anisotropic.
        let domain = naca0012_domain(60, 30.0);
        let growth = Geometric::new(1e-4, 1.25);
        let bl = build_boundary_layer(
            &domain.loops[0].points,
            &growth,
            &BlParams {
                height: 0.03,
                ..Default::default()
            },
        );
        let mesh = &bl_mesh(bl, &domain.hole_seeds(), 8);
        let mut max_aspect = 0.0f64;
        for t in mesh.live_triangles() {
            let tri = mesh.tri(t as usize);
            let q = adm_delaunay::quality::tri_quality(
                mesh.vertex(tri[0] as usize),
                mesh.vertex(tri[1] as usize),
                mesh.vertex(tri[2] as usize),
            );
            if q.aspect.is_finite() {
                max_aspect = max_aspect.max(q.aspect);
            }
        }
        assert!(
            max_aspect > 20.0,
            "boundary layer is not anisotropic (max aspect {max_aspect:.1})"
        );
    }
}
