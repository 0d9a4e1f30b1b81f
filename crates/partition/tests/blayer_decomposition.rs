//! Figure 8: the boundary layer decomposed into independent Delaunay
//! subdomains whose union is the exact global Delaunay triangulation.

use adm_airfoil::naca0012_domain;
use adm_blayer::{build_boundary_layer, BlParams, Geometric, GrowthSpec};
use adm_delaunay::divconq::triangulate_dc;
use adm_geom::point::Point2;
use adm_partition::{decompose, triangulate_all, DecomposeParams, Subdomain};

fn canon(tris: &[[u32; 3]]) -> Vec<[u32; 3]> {
    let mut v: Vec<[u32; 3]> = tris
        .iter()
        .map(|t| {
            let mut s = *t;
            s.sort_unstable();
            s
        })
        .collect();
    v.sort();
    v
}

#[test]
fn boundary_layer_cloud_decomposes_into_128_subdomains() {
    let domain = naca0012_domain(80, 30.0);
    let growth = GrowthSpec::from(Geometric::new(5e-4, 1.25));
    let bl = build_boundary_layer(
        &domain.loops[0].points,
        &growth,
        &BlParams {
            height: 0.05,
            ..Default::default()
        },
    );
    let cloud = bl.all_points();
    assert!(cloud.len() > 2_000, "only {} points", cloud.len());

    let root = Subdomain::root(cloud);
    let d = decompose(root, &DecomposeParams::for_subdomain_count(128));
    assert!(
        d.leaves.len() >= 64 && d.leaves.len() <= 128,
        "got {} leaves",
        d.leaves.len()
    );

    // Independent triangulation + merge reproduces the exact global DT of
    // the anisotropic cloud.
    let merged = triangulate_all(&d.leaves);
    let dc = triangulate_dc(cloud, false);
    let direct: Vec<[u32; 3]> = dc
        .triangles()
        .iter()
        .map(|t| {
            [
                dc.input_index[t[0] as usize],
                dc.input_index[t[1] as usize],
                dc.input_index[t[2] as usize],
            ]
        })
        .collect();
    assert_eq!(canon(&merged), canon(&direct));
}

#[test]
fn subdomain_costs_are_balanced() {
    // The coarse partitioner should yield sub-domains whose cost estimates
    // are within a reasonable factor of each other for load balancing.
    let domain = naca0012_domain(60, 30.0);
    let growth = GrowthSpec::from(Geometric::new(1e-3, 1.3));
    let bl = build_boundary_layer(
        &domain.loops[0].points,
        &growth,
        &BlParams {
            height: 0.04,
            ..Default::default()
        },
    );
    let cloud = bl.all_points();
    let d = decompose(
        Subdomain::root(cloud),
        &DecomposeParams::for_subdomain_count(16),
    );
    let costs: Vec<u64> = d.leaves.iter().map(|l| l.cost()).collect();
    let max = *costs.iter().max().unwrap() as f64;
    let mean = costs.iter().sum::<u64>() as f64 / costs.len() as f64;
    // Median splits keep the imbalance bounded (path duplication adds a
    // fringe).
    assert!(
        max / mean < 2.5,
        "imbalance too high: max {max}, mean {mean:.1}"
    );
}

#[test]
fn dividing_paths_are_delaunay_edges() {
    // Every dividing-path edge must appear in the direct global DT — the
    // property that makes the decomposition non-intrusive (§II.D).
    let pts: Vec<Point2> = {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        (0..400)
            .map(|_| Point2::new(rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect()
    };
    let d = decompose(
        Subdomain::root(&pts),
        &DecomposeParams {
            min_vertices: 8,
            max_level: 1, // single split: paths vs the global DT
        },
    );
    let dc = triangulate_dc(&pts, false);
    let mut dt_edges = std::collections::HashSet::new();
    for t in dc.triangles() {
        for k in 0..3 {
            let (a, b) = (
                dc.input_index[t[k] as usize],
                dc.input_index[t[(k + 1) % 3] as usize],
            );
            dt_edges.insert(if a < b { (a, b) } else { (b, a) });
        }
    }
    for path in &d.paths {
        for w in path.windows(2) {
            let key = if w[0] < w[1] {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            assert!(
                dt_edges.contains(&key),
                "path edge {key:?} not in the global DT"
            );
        }
    }
}
