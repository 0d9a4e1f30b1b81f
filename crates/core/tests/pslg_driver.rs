//! The general-PSLG front door on the shared driver: the caller's pool
//! reaches the merge, a run over budget publishes nothing, the run is
//! traced like the airfoil paths, and an input too small for the
//! predicates is a typed error.

use adm_core::{
    mesh_digest_hex, mesh_pslg, mesh_pslg_on, Executor, PslgMeshError, PslgMeshResult, TaskKind,
    UniformH, MANIFEST_NAME,
};
use adm_delaunay::poly::read_poly;
use adm_delaunay::refine::RefineParams;
use adm_geom::point::Point2;
use adm_geom::pslg::Pslg;
use adm_mpirt::Pool;
use adm_trace::Track;
use std::path::Path;

/// The committed two-component example (plate with a hole + block).
fn plate() -> Pslg {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/two_part_plate.poly"
    );
    let file = std::fs::File::open(path).expect("committed example present");
    read_poly(&mut std::io::BufReader::new(file))
        .expect("committed example parses")
        .to_pslg()
}

fn run(
    pslg: &Pslg,
    h: f64,
    params: &RefineParams,
    executor: Executor,
    width: usize,
    shard_out: Option<&Path>,
) -> Result<PslgMeshResult, PslgMeshError> {
    mesh_pslg_on(
        pslg,
        &UniformH(h),
        params,
        executor,
        &Pool::new(width),
        shard_out,
    )
}

#[test]
fn digest_is_pool_width_independent_and_the_pool_reaches_the_merge() {
    let (pslg, params) = (plate(), RefineParams::default());
    let reference = mesh_digest_hex(
        &run(&pslg, 0.2, &params, Executor::Pool, 0, None)
            .unwrap()
            .mesh,
    );
    for width in [1usize, 2, 8] {
        let out = run(&pslg, 0.2, &params, Executor::Pool, width, None).unwrap();
        assert_eq!(mesh_digest_hex(&out.mesh), reference, "pool width {width}");
        let snap = out.trace.snapshot();
        let merge = snap
            .spans
            .iter()
            .position(|s| s.name == "phase.merge")
            .expect("merge phase traced");
        let (lo, hi) = (snap.spans[merge].start_ns, snap.spans[merge].end_ns);
        let nodes: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "merge.node")
            .collect();
        assert!(!nodes.is_empty(), "width {width}: no merge.node span");
        for n in nodes {
            assert!(lo <= n.start_ns && n.end_ns <= hi, "merge.node outside");
        }
    }
}

#[test]
fn exhausted_budget_with_shard_out_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("adm-pslg-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let params = RefineParams {
        max_insertions: 2,
        ..Default::default()
    };
    for executor in [Executor::Pool, Executor::ranks(2)] {
        match run(&plate(), 0.05, &params, executor, 0, Some(&dir)) {
            Err(PslgMeshError::BudgetExhausted { components }) => assert!(components >= 1),
            other => panic!("expected BudgetExhausted, got {:?}", other.map(|_| ())),
        }
        assert!(!dir.join(MANIFEST_NAME).exists(), "manifest published");
        let files = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(files, 0, "shard files published");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_is_traced_like_the_airfoil_paths() {
    let out = run(
        &plate(),
        0.05,
        &RefineParams::default(),
        Executor::Pool,
        0,
        None,
    )
    .unwrap();
    adm_trace::check_well_formed(&out.trace.snapshot()).expect("malformed trace");
    let snap = out.trace.snapshot();
    let root = snap
        .spans
        .iter()
        .position(|s| s.name == "pipeline" && s.track == Track::ROOT)
        .expect("root span");
    let phases: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .collect();
    let names: Vec<&str> = phases.iter().map(|s| s.name.as_ref()).collect();
    assert_eq!(names, ["phase.setup", "phase.parallel_mesh", "phase.merge"]);
    let covered: u64 = phases.iter().map(|s| s.end_ns - s.start_ns).sum();
    let total = snap.spans[root].end_ns - snap.spans[root].start_ns;
    assert!(
        covered as f64 >= 0.95 * total as f64,
        "{covered} of {total}"
    );

    let leaves = snap
        .spans
        .iter()
        .filter(|s| s.name == TaskKind::InviscidRefine.span_name())
        .count();
    assert_eq!(leaves, out.components);
    assert_eq!(out.log.parallel_tasks().len(), out.components);
    assert_eq!(
        out.log.total_triangles(),
        2 * out.mesh.num_triangles() as u64
    );
    assert_eq!(
        out.trace.counter("refine.segment_splits"),
        out.refine_stats.segment_splits as u64
    );
    assert!(out.trace.counter("refine.circumcenters") > 0);
}

#[test]
fn underflowing_coordinates_are_a_typed_cdt_error() {
    // The plate scaled by 2^-300 (points and target size alike): the
    // predicates' degree-4 terms fall below the subnormal range, so the
    // constraint insertion finds no exit triangle. That is an error the
    // caller can handle, not a panic.
    let scale = 2f64.powi(-300);
    let mut pslg = plate();
    for p in pslg.points.iter_mut().chain(&mut pslg.holes) {
        *p = Point2::new(p.x * scale, p.y * scale);
    }
    match mesh_pslg(&pslg, &UniformH(0.2 * scale), &RefineParams::default()) {
        Err(PslgMeshError::Cdt(_)) => {}
        other => panic!("expected a CDT error, got {:?}", other.map(|_| ())),
    }
}
