//! Workspace-level system tests through the public `adm2d` facade:
//! mesh -> I/O roundtrip -> flow solve -> scaling simulation, end to end.

use adm2d::core::{
    generate, generate_parallel, mesh_pslg, mesh_pslg_on, read_manifest, reconstruct, sha256_hex,
    verify_shards, Executor, GradationLimited, GradedSizing, MeshConfig, SizingFn, UniformH,
    MANIFEST_NAME,
};
use adm2d::delaunay::io::{
    read_ascii, read_binary, write_ascii, write_ascii_canonical, write_binary,
};
use adm2d::delaunay::poly::read_poly;
use adm2d::delaunay::refine::RefineParams;
use adm2d::mpirt::Pool;
use adm2d::simnet::{simulate, InitialDist, SimConfig, Task};
use adm2d::solver::{solve_potential_flow, FlowConditions};

fn test_config() -> MeshConfig {
    let mut c = MeshConfig::naca0012(40);
    c.sizing_max_area = 2.0;
    c.bl_subdomains = 8;
    c.inviscid_subdomains = 8;
    c
}

#[test]
fn mesh_roundtrips_through_both_formats() {
    let result = generate(&test_config());
    let mesh = &result.mesh;

    let mut ascii = Vec::new();
    write_ascii(mesh, &mut ascii).unwrap();
    let back = read_ascii(&mut ascii.as_slice()).unwrap();
    assert_eq!(back.num_vertices(), mesh.num_vertices());
    assert_eq!(back.num_triangles(), mesh.num_triangles());
    back.check_consistency();

    let mut bin = Vec::new();
    write_binary(mesh, &mut bin).unwrap();
    let back = read_binary(&mut bin.as_slice()).unwrap();
    assert_eq!(back.num_triangles(), mesh.num_triangles());
    assert_eq!(back.points(), mesh.points());
    // The binary format is denser than ASCII (the paper's §IV point about
    // output costs).
    assert!(bin.len() < ascii.len() / 2);
}

#[test]
fn generated_mesh_supports_flow_solution() {
    let result = generate(&test_config());
    let sol = solve_potential_flow(&result.mesh, &FlowConditions::default());
    assert!(
        sol.residuals.last().unwrap() < &1e-9,
        "solver did not converge: {:?}",
        sol.residuals.last()
    );
    // Stagnation and suction both present around a lifting airfoil.
    let speeds: Vec<f64> = sol.velocity.iter().map(|&(_, v)| v.norm()).collect();
    assert!(speeds.iter().cloned().fold(f64::INFINITY, f64::min) < 0.5);
    assert!(speeds.iter().cloned().fold(0.0, f64::max) > 1.05);
}

#[test]
fn measured_tasklog_feeds_the_scaling_simulation() {
    let result = generate(&test_config());
    let tasks: Vec<Task> = result
        .log
        .parallel_tasks()
        .iter()
        .map(|r| Task {
            cost_s: r.cost_s.max(1e-7),
            bytes: r.bytes.max(64),
        })
        .collect();
    assert!(tasks.len() >= 10);
    let total: f64 = tasks.iter().map(|t| t.cost_s).sum();
    let longest = tasks.iter().map(|t| t.cost_s).fold(0.0, f64::max);
    let cfg = SimConfig::default();
    let dist = InitialDist::Tree {
        split_cost_s_per_byte: 1e-9,
    };
    // Measured costs differ from run to run, and a list schedule of
    // arbitrary costs is not monotone in `p`. What it does promise is
    // Graham's bound, here on top of the modeled distribution and
    // balancer traffic, and no more than linear speed-up.
    for p in [1usize, 2, 4, 8] {
        let sim = simulate(p, &tasks, dist, &cfg);
        let modeled = sim.setup_s + sim.comm_s + sim.denies as f64 * cfg.poll_s;
        let bound = total / p as f64 + longest + modeled;
        assert!(
            sim.makespan_s <= bound,
            "p={p}: {} > {bound}",
            sim.makespan_s
        );
        assert!(total / sim.makespan_s <= p as f64 + 1e-9);
    }
    // On fixed, equal costs more ranks can only help.
    let equal = vec![
        Task {
            cost_s: 0.01,
            bytes: 4096
        };
        64
    ];
    let mut prev = f64::INFINITY;
    for p in [1usize, 2, 4, 8] {
        let sim = simulate(p, &equal, dist, &cfg);
        assert!(sim.makespan_s <= prev + 1e-12, "makespan rose at p={p}");
        prev = sim.makespan_s;
    }
}

#[test]
fn push_button_determinism() {
    // The pipeline is deterministic: two runs with the same config give
    // bitwise-identical meshes.
    let a = generate(&test_config());
    let b = generate(&test_config());
    assert_eq!(a.stats.total_triangles, b.stats.total_triangles);
    assert_eq!(a.mesh.points(), b.mesh.points());
}

/// Canonical mesh identity: sha256 of the sorted ASCII form, the same
/// digest `--hash` prints and the merge tests key on.
fn canon_sha(m: &adm2d::delaunay::mesh::Mesh) -> String {
    let mut buf = Vec::new();
    write_ascii_canonical(m, &mut buf).unwrap();
    sha256_hex(&buf)
}

/// Every file in a shard directory, name -> contents, sorted by name.
type DirFingerprint = Vec<(String, Vec<u8>)>;

fn dir_fingerprint(dir: &std::path::Path) -> DirFingerprint {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("adm2d-system-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tentpole oracle: the sharded output of the NACA pipeline
/// reconstructs to the exact in-process merged mesh under the pool
/// executor (`ranks` 0: in-process `generate`, the reference) and at
/// every rank count, and the shard set itself is byte-identical across
/// executors and rank schedules (shards are keyed by task path, not by
/// list index or rank).
#[test]
fn sharded_output_reconstructs_merged_mesh_at_every_rank_count() {
    let root = scratch_dir("naca");
    let mut reference: Option<(String, DirFingerprint)> = None;
    for ranks in [0usize, 1, 2, 4, 8] {
        let dir = root.join(format!("r{ranks}"));
        let mut config = test_config();
        config.shard_out = Some(dir.clone());
        let result = match ranks {
            0 => generate(&config),
            _ => generate_parallel(&config, ranks),
        };

        let manifest = read_manifest(&dir).expect("manifest written");
        let report = verify_shards(&dir, &manifest).expect("shards readable");
        assert!(
            report.is_consistent(),
            "ranks={ranks}: {:?}",
            report.problems
        );
        assert!(report.shared_stamped > 0, "interfaces share stamped gids");

        let recon = reconstruct(&dir, &manifest).expect("reconstruction");
        let sha = canon_sha(&recon);
        assert_eq!(
            sha,
            canon_sha(&result.mesh),
            "ranks={ranks}: offline reconstruction diverged from in-process merge"
        );

        let fp = dir_fingerprint(&dir);
        assert!(fp.iter().any(|(n, _)| n == MANIFEST_NAME));
        match &reference {
            None => reference = Some((sha, fp)),
            Some((sha0, fp0)) => {
                assert_eq!(&sha, sha0, "mesh digest changed at ranks={ranks}");
                assert_eq!(
                    fp.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    fp0.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                    "shard file set changed at ranks={ranks}"
                );
                for ((name, bytes), (_, bytes0)) in fp.iter().zip(fp0) {
                    assert_eq!(bytes, bytes0, "{name} differs at ranks={ranks}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The shard-cat binary round-trips the same directory: `--canonical`
/// on stdout reproduces the in-process mesh digest, and `--verify-only`
/// exits zero.
#[test]
fn shard_cat_binary_round_trips_a_shard_directory() {
    let root = scratch_dir("shardcat");
    let dir = root.join("shards");
    let mut config = test_config();
    config.shard_out = Some(dir.clone());
    let result = generate_parallel(&config, 4);

    let bin = env!("CARGO_BIN_EXE_shard-cat");
    let verify = std::process::Command::new(bin)
        .arg(&dir)
        .arg("--verify-only")
        .arg("--quiet")
        .output()
        .expect("shard-cat runs");
    assert!(
        verify.status.success(),
        "verify-only failed: {}",
        String::from_utf8_lossy(&verify.stderr)
    );

    let cat = std::process::Command::new(bin)
        .arg(&dir)
        .arg("--canonical")
        .arg("--quiet")
        .output()
        .expect("shard-cat runs");
    assert!(cat.status.success());
    assert_eq!(
        sha256_hex(&cat.stdout),
        canon_sha(&result.mesh),
        "shard-cat --canonical diverged from the in-process merge"
    );

    // Corrupt one shard byte: shard-cat must refuse.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "adm"))
        .expect("at least one shard file");
    let mut bytes = std::fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&victim, bytes).unwrap();
    let refused = std::process::Command::new(bin)
        .arg(&dir)
        .arg("--verify-only")
        .arg("--quiet")
        .output()
        .expect("shard-cat runs");
    assert!(
        !refused.status.success(),
        "shard-cat accepted a corrupted shard"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The PSLG front door's sharded mode: per-component shards
/// reconstruct to the in-process multi-component mesh, identically at
/// every rank count.
#[test]
fn poly_example_shards_reconstruct_identically() {
    let file = std::fs::File::open(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/two_part_plate.poly"
    ))
    .expect("committed example present");
    let pslg = read_poly(&mut std::io::BufReader::new(file))
        .expect("committed example parses")
        .to_pslg();
    let sizing = UniformH(0.4);
    let params = RefineParams::default();

    let root = scratch_dir("poly");
    let mut reference: Option<(String, DirFingerprint)> = None;
    for ranks in [1usize, 2, 4, 8] {
        let dir = root.join(format!("r{ranks}"));
        let (exec, pool) = (Executor::ranks(ranks), Pool::new(0));
        let result = mesh_pslg_on(&pslg, &sizing, &params, exec, &pool, Some(&dir))
            .expect("sharded PSLG mesh");
        let manifest = read_manifest(&dir).expect("manifest written");
        assert_eq!(manifest.shards.len(), result.components);

        let report = verify_shards(&dir, &manifest).expect("shards readable");
        assert!(
            report.is_consistent(),
            "ranks={ranks}: {:?}",
            report.problems
        );
        let recon = reconstruct(&dir, &manifest).expect("reconstruction");
        let sha = canon_sha(&recon);
        assert_eq!(sha, canon_sha(&result.mesh), "ranks={ranks}");

        let fp = dir_fingerprint(&dir);
        match &reference {
            None => reference = Some((sha, fp)),
            Some((sha0, fp0)) => {
                assert_eq!(&sha, sha0);
                assert_eq!(&fp, fp0, "shard set changed at ranks={ranks}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The committed multi-part `.poly` example flows through the general
/// PSLG front door with the documented user sizing function
/// (`--sizing 0.08,0.15 --gradation 0.3`), and the serial and 4-rank
/// runs are byte-identical — the README's `cmp` claim, as a test.
#[test]
fn committed_poly_example_is_rank_invariant() {
    let file = std::fs::File::open(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/two_part_plate.poly"
    ))
    .expect("committed example present");
    let pslg = read_poly(&mut std::io::BufReader::new(file))
        .expect("committed example parses")
        .to_pslg();
    assert_eq!(pslg.holes.len(), 1, "example has one cooling hole");

    // The same sizing run_poly builds for --sizing 0.08,0.15
    // --gradation 0.3 (admesh's default --max-area is 1.0).
    let (h0, rate) = (0.08, 0.15);
    let body: Vec<_> = {
        let mut on_boundary = vec![false; pslg.points.len()];
        for &(a, b) in &pslg.segments {
            on_boundary[a as usize] = true;
            on_boundary[b as usize] = true;
        }
        pslg.points
            .iter()
            .zip(&on_boundary)
            .filter(|(_, &ob)| ob)
            .map(|(&p, _)| p)
            .collect()
    };
    let graded = GradedSizing::new(&body, h0, rate, 1.0, 256);
    let sized = GradationLimited::new(graded, &pslg.points, 0.3);
    assert!(sized.h(pslg.points[0]) > 0.0);

    let params = RefineParams::default();
    let serial = mesh_pslg(&pslg, &sized, &params).expect("serial mesh");
    assert_eq!(serial.components, 2, "plate + stiffener block");
    assert!(serial.report.is_clean(), "example needs no repairs");
    let canon = |m: &adm2d::delaunay::mesh::Mesh| {
        let mut buf = Vec::new();
        write_ascii_canonical(m, &mut buf).unwrap();
        buf
    };
    let bytes = canon(&serial.mesh);
    for ranks in [2, 4] {
        let (exec, pool) = (Executor::ranks(ranks), Pool::new(0));
        let par = mesh_pslg_on(&pslg, &sized, &params, exec, &pool, None).expect("parallel mesh");
        assert_eq!(
            canon(&par.mesh),
            bytes,
            "{ranks}-rank mesh diverged from serial"
        );
    }
    // Sanity on the meshed area: plate (12 - chamfers 0.5 - hole 1) +
    // block 6.
    let area: f64 = serial
        .mesh
        .live_triangles()
        .map(|t| {
            let tri = serial.mesh.tri(t as usize);
            adm2d::geom::polygon::signed_area(&[
                serial.mesh.vertex(tri[0] as usize),
                serial.mesh.vertex(tri[1] as usize),
                serial.mesh.vertex(tri[2] as usize),
            ])
        })
        .sum();
    assert!((area - 16.5).abs() < 1e-9, "meshed area {area}");
}

/// `admesh --poly-airfoil` admits its `.poly` through `Pslg::validate`:
/// two separate bodies mesh and exit 0, while crossing loops and a
/// segment on no closed loop exit 1 with the reason on stderr — never a
/// panic inside the airfoil domain's asserts.
#[test]
fn poly_airfoil_input_is_validated_before_meshing() {
    use adm2d::delaunay::poly::{write_poly, PolyFile};
    use adm2d::geom::point::Point2;
    use adm2d::geom::pslg::Pslg;

    let ellipse = |cx: f64, cy: f64, a: f64, b: f64| -> Vec<Point2> {
        let at = |k: u32| std::f64::consts::TAU * f64::from(k) / 24.0;
        (0..24)
            .map(|k| Point2::new(cx + a * at(k).cos(), cy + b * at(k).sin()))
            .collect()
    };
    let root = scratch_dir("poly-airfoil");
    std::fs::create_dir_all(&root).unwrap();
    let admesh = |name: &str, pslg: &Pslg| {
        let path = root.join(format!("{name}.poly"));
        let mut bytes = Vec::new();
        write_poly(&PolyFile::from_pslg(pslg), &mut bytes).unwrap();
        std::fs::write(&path, bytes).unwrap();
        std::process::Command::new(env!("CARGO_BIN_EXE_admesh"))
            .arg("--poly-airfoil")
            .arg(&path)
            .args(["--max-area", "6.0", "--subdomains", "4", "--quiet", "--out"])
            .arg(root.join(format!("{name}.txt")))
            .output()
            .expect("admesh runs")
    };

    let mut two = Pslg::default();
    two.push_loop(&ellipse(0.5, 0.0, 0.5, 0.08));
    two.push_loop(&ellipse(1.6, -0.2, 0.3, 0.05));
    let ok = admesh("two", &two);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let mesh = read_ascii(&mut std::io::BufReader::new(
        std::fs::File::open(root.join("two.txt")).unwrap(),
    ))
    .unwrap();
    assert!(mesh.num_triangles() > 1000);

    let mut crossing = Pslg::default();
    crossing.push_loop(&ellipse(0.5, 0.0, 0.5, 0.08));
    crossing.push_loop(&ellipse(0.6, 0.02, 0.5, 0.08));
    let mut open = two.clone();
    open.push_loop(&ellipse(0.5, 2.0, 0.3, 0.05));
    open.segments.pop();
    for (name, pslg, reason) in [
        ("crossing", &crossing, "properly cross"),
        ("open", &open, "23 segment(s) lie on no closed loop"),
    ] {
        let out = admesh(name, pslg);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(reason), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
