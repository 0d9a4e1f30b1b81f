//! Boundary layers on real airfoil geometry — the qualitative cases of
//! the paper's Figures 2–5 and 13.

use adm_airfoil::{naca0012_domain, three_element_highlift, HighLiftParams};
use adm_blayer::{
    build_boundary_layer, build_multielement_layers, layers_disjoint, no_proper_intersections,
    BlParams, Geometric, GrowthSpec, RaySource,
};
use adm_geom::polygon::contains_point;

#[test]
fn naca0012_boundary_layer() {
    let domain = naca0012_domain(60, 30.0);
    let surf = &domain.loops[0].points;
    let growth = GrowthSpec::from(Geometric::new(2e-4, 1.25));
    let params = BlParams {
        height: 0.05,
        ..Default::default()
    };
    let bl = build_boundary_layer(surf, &growth, &params);

    // Figure 2: rays along surface normals at every vertex.
    assert!(bl.rays.len() >= surf.len());
    // Figure 4: the sharp trailing edge gets a fan of rays.
    let fans = bl
        .rays
        .iter()
        .filter(|r| matches!(r.source, RaySource::Fan(_)))
        .count();
    assert!(fans >= 5, "no trailing-edge fan ({fans} fan rays)");
    // No ray crosses another after resolution.
    assert!(no_proper_intersections(&bl.rays));
    // Anisotropy: first-layer spacing (2e-4) is far smaller than the
    // tangential spacing (surface discretization ~ 1e-2): aspect ratios of
    // order 100:1 near the wall.
    let stats = bl.stats();
    assert!(stats.points > 1_000, "only {} layer points", stats.points);
    assert!(stats.min_layers >= 1);
    // No layer point inside the airfoil solid.
    for &q in &bl.layer.points {
        assert!(!contains_point(surf, q), "point {q:?} inside the airfoil");
    }
    // Figure 5: smooth transition — neighboring rays' layer counts differ
    // by a bounded amount along the smooth surface.
    let n = bl.layer.num_rays();
    let mut max_jump = 0i64;
    for i in 0..n {
        let a = bl.layer.ray_points(i).len() as i64;
        let b = bl.layer.ray_points((i + 1) % n).len() as i64;
        max_jump = max_jump.max((a - b).abs());
    }
    assert!(max_jump <= 12, "layer-count jump {max_jump}");
}

#[test]
fn three_element_layers_resolve_all_intersections() {
    let pslg = three_element_highlift(&HighLiftParams::default());
    let surfaces: Vec<Vec<adm_geom::Point2>> =
        pslg.loops.iter().map(|l| l.points.clone()).collect();
    let growth = GrowthSpec::from(Geometric::new(2e-4, 1.3));
    let params = BlParams {
        height: 0.04,
        ..Default::default()
    };
    let layers = build_multielement_layers(&surfaces, &growth, &params);
    assert_eq!(layers.len(), 3);

    for (i, l) in layers.iter().enumerate() {
        // Figure 13b/c: self-intersections resolved (coves included).
        assert!(
            no_proper_intersections(&l.rays),
            "element {i} has crossing rays"
        );
        // Layer points stay out of their own solid.
        for &q in &l.layer.points {
            assert!(
                !contains_point(&surfaces[i], q),
                "element {i} point {q:?} inside solid"
            );
        }
    }
    // Figure 13d: multi-element intersections resolved — no element's
    // layer reaches inside another element's layer or solid.
    for i in 0..3 {
        for j in 0..3 {
            if i != j {
                assert!(
                    layers_disjoint(&layers[i], &layers[j]),
                    "layers {i} and {j} overlap"
                );
                for &q in &layers[i].layer.points {
                    assert!(
                        !contains_point(&surfaces[j], q),
                        "element {i} point inside element {j} solid"
                    );
                }
            }
        }
    }
    // The gap rays (slat TE toward main, main TE toward flap) were
    // clamped below the requested height.
    let clamped: usize = layers
        .iter()
        .map(|l| {
            l.rays
                .iter()
                .filter(|r| r.max_height < params.height - 1e-12)
                .count()
        })
        .sum();
    assert!(clamped > 0, "no multi-element clamping occurred");
}

#[test]
fn blunt_trailing_edge_gets_rays_on_both_corners() {
    // Figure 13e: the flap's blunt TE has two slope discontinuities; both
    // corners must fan.
    let pslg = three_element_highlift(&HighLiftParams::default());
    let flap = &pslg.loops[2].points;
    let growth = GrowthSpec::from(Geometric::new(2e-4, 1.3));
    let bl = build_boundary_layer(
        flap,
        &growth,
        &BlParams {
            height: 0.02,
            ..Default::default()
        },
    );
    let fan_sources: std::collections::HashSet<u32> = bl
        .rays
        .iter()
        .filter_map(|r| match r.source {
            RaySource::Fan(i) => Some(i),
            _ => None,
        })
        .collect();
    assert!(
        fan_sources.len() >= 2,
        "expected fans at both blunt-TE corners, got {fan_sources:?}"
    );
}
