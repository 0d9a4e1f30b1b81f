//! The metric glossary: every end-to-end and per-layer metric by name,
//! unit and direction, and — for the layer metrics — which layer owns it
//! and which (end-to-end metric, workload) it is predicted to move.
//! `BENCHMARK.json`, the report writer and `README.md` all follow this
//! table; a unit test keeps `BENCHMARK.json` equal to it.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "op_s_p50",
        unit: "s",
        better: "lower",
    },
    EndToEnd {
        name: "mtri_per_s",
        unit: "Mtri/s",
        better: "higher",
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: "higher",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Crate / module the number belongs to.
    pub layer: &'static str,
    /// The (end-to-end metric, workload) an optimisation of this layer
    /// should move, and where it should move nothing.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const BL: &str = "op_s_p50 on bl_heavy; nothing on inviscid_1m, pslg_plate, serve_hot";
const REFINE: &str =
    "op_s_p50 / mtri_per_s on inviscid_1m, pslg_plate, serve_miss; nothing on bl_heavy, serve_hot";
const MERGE: &str =
    "op_s_p50 and peak_rss_mb on inviscid_1m; serial tail of ranks2_1m; nothing on serve_hot";
const RANKS: &str = "op_s_p50 on ranks2_1m only";
const ADAPT: &str = "op_s_p50 on adapt_naca only";
const PSLG: &str = "op_s_p50 on pslg_plate only";
const ENCODE: &str = "op_s_p50 on serve_miss and adapt_naca; bypassed by the library mesh ops";
const SHARD: &str = "op_s_p50 on serve_miss (disk level on); nothing elsewhere";
const HIT: &str = "op_s_p50 / req_per_s on serve_hot; nothing on the mesh workloads";
const NONE: &str = "none; guards the ruler itself";

pub const PER_LAYER: &[PerLayer] = &[
    m("blayer.build_s", "s", "lower", "blayer", BL),
    m("blayer.points", "count", "lower", "blayer", BL),
    m("partition.decompose_s", "s", "lower", "partition", BL),
    m("partition.leaves", "count", "higher", "partition", BL),
    m("dc.triangulate_s", "s", "lower", "delaunay.divconq", BL),
    m("dc.mtri_per_s", "Mtri/s", "higher", "delaunay.divconq", BL),
    m("blmesh.total_s", "s", "lower", "core.blmesh", BL),
    m("blmesh.carve_self_s", "s", "lower", "core.blmesh", BL),
    m(
        "decouple.split_s",
        "s",
        "lower",
        "decouple",
        "op_s_p50 on inviscid_1m, ranks2_1m (small today)",
    ),
    m(
        "decouple.leaves",
        "count",
        "higher",
        "decouple",
        "op_s_p50 on inviscid_1m, ranks2_1m",
    ),
    m("refine.regions_s", "s", "lower", "delaunay.refine", REFINE),
    m("refine.nearbody_s", "s", "lower", "delaunay.refine", REFINE),
    m(
        "refine.mtri_per_s",
        "Mtri/s",
        "higher",
        "delaunay.refine",
        REFINE,
    ),
    m(
        "refine.region_s_max",
        "s",
        "lower",
        "delaunay.refine",
        "bounds op_s_p50 on ranks2_1m",
    ),
    m(
        "refine.region_s_cv",
        "ratio",
        "lower",
        "delaunay.refine",
        "bounds op_s_p50 on ranks2_1m",
    ),
    m(
        "refine.steiner_points",
        "count",
        "lower",
        "delaunay.refine",
        REFINE,
    ),
    m(
        "refine.segment_splits",
        "count",
        "lower",
        "delaunay.refine",
        REFINE,
    ),
    m(
        "sizing.build_s",
        "s",
        "lower",
        "core.sizing",
        "op_s_p50 on inviscid_1m, adapt_naca (small)",
    ),
    m(
        "sizing.graded_eval_ns",
        "ns",
        "lower",
        "core.sizing",
        "op_s_p50 on inviscid_1m, pslg_plate",
    ),
    m("sizing.metric_eval_ns", "ns", "lower", "core.sizing", ADAPT),
    m("merge.propagate_s", "s", "lower", "core.merge", MERGE),
    m("merge.tree_s", "s", "lower", "core.merge", MERGE),
    m("merge.finish_s", "s", "lower", "core.merge", MERGE),
    m("merge.conformity_s", "s", "lower", "core.merge", MERGE),
    m("merge.inputs", "count", "lower", "core.merge", MERGE),
    m("merge.share_of_op", "ratio", "lower", "core.merge", MERGE),
    m(
        "pipeline.wall_w0_s",
        "s",
        "lower",
        "core.pipeline",
        "explains op_s_p50 on inviscid_1m, bl_heavy",
    ),
    m(
        "pipeline.wall_w2_s",
        "s",
        "lower",
        "core.pipeline",
        "explains op_s_p50 on inviscid_1m, bl_heavy",
    ),
    m(
        "pipeline.first_op_s",
        "s",
        "lower",
        "core.pipeline",
        "setup_s on the library workloads",
    ),
    m("mpirt.r1_over_serial", "ratio", "lower", "mpirt", RANKS),
    m(
        "mpirt.parallel_efficiency",
        "ratio",
        "higher",
        "mpirt",
        RANKS,
    ),
    m("mpirt.tasks", "count", "higher", "mpirt", RANKS),
    m("mpirt.setup_s", "s", "lower", "mpirt", RANKS),
    m("mpirt.parallel_mesh_s", "s", "lower", "mpirt", RANKS),
    m("mpirt.merge_tail_s", "s", "lower", "mpirt", RANKS),
    m(
        "simnet.pred_p2_s",
        "s",
        "lower",
        "simnet",
        "labels the modeled numbers; moves nothing",
    ),
    m(
        "simnet.pred_err_p2",
        "ratio",
        "lower",
        "simnet",
        "labels the modeled numbers; moves nothing",
    ),
    m("solver.solve_s", "s", "lower", "solver", ADAPT),
    m("solver.cg_iters", "count", "lower", "solver", ADAPT),
    m("solver.estimate_s", "s", "lower", "solver", ADAPT),
    m("adapt.remesh_s", "s", "lower", "core.adapt", ADAPT),
    m("adapt.canon_roundtrip_s", "s", "lower", "core.adapt", ADAPT),
    m("pslg.read_poly_s", "s", "lower", "core.pslg_pipeline", PSLG),
    m("pslg.validate_s", "s", "lower", "core.pslg_pipeline", PSLG),
    m("pslg.mesh_s", "s", "lower", "core.pslg_pipeline", PSLG),
    m("io.ascii_canonical_s", "s", "lower", "delaunay.io", ENCODE),
    m("io.ascii_mb_per_s", "MB/s", "higher", "delaunay.io", ENCODE),
    m(
        "io.binary_s",
        "s",
        "lower",
        "delaunay.io",
        "op_s_p50 on serve_miss (shard files)",
    ),
    m("io.read_ascii_s", "s", "lower", "delaunay.io", ADAPT),
    m(
        "hash.sha256_mb_per_s",
        "MB/s",
        "higher",
        "core.hash",
        ENCODE,
    ),
    m(
        "io.response_bytes",
        "bytes",
        "lower",
        "delaunay.io",
        "op_s_p50 on serve_miss, serve_hot",
    ),
    m("shard.write_s", "s", "lower", "core.shard", SHARD),
    m("shard.bytes", "bytes", "lower", "core.shard", SHARD),
    m("shard.verify_s", "s", "lower", "core.shard", SHARD),
    m("shard.reconstruct_s", "s", "lower", "core.shard", SHARD),
    m("request.encode_us", "us", "lower", "serve.request", HIT),
    m("request.parse_us", "us", "lower", "serve.request", HIT),
    m("request.key_us", "us", "lower", "serve.request", HIT),
    m("request.bytes", "bytes", "lower", "serve.request", HIT),
    m("server.submit_hit_us", "us", "lower", "serve.server", HIT),
    m(
        "server.submit_miss_s",
        "s",
        "lower",
        "serve.server",
        "op_s_p50 on serve_miss; minus the mesh job = queue + encode",
    ),
    m("cache.disk_load_s", "s", "lower", "serve.cache", SHARD),
    m(
        "serve.hit_ratio",
        "ratio",
        "higher",
        "serve.cache",
        "1 on serve_hot, 0 on serve_miss by construction",
    ),
    m(
        "serve.jobs",
        "count",
        "lower",
        "serve.server",
        "equals requests on serve_miss, keys on serve_hot",
    ),
    m("wire.ping_rtt_us", "us", "lower", "serve.wire", HIT),
    m("client.rtt_s_p90", "s", "lower", "serve.net", HIT),
    m("client.rtt_s_p99", "s", "lower", "serve.net", HIT),
    m("serve.resp_mb_per_s", "MB/s", "higher", "serve.net", HIT),
    m(
        "geom.orient2d_ns",
        "ns",
        "lower",
        "geom",
        "small shares of bl_heavy, inviscid_1m",
    ),
    m(
        "geom.incircle_ns",
        "ns",
        "lower",
        "geom",
        "small shares of bl_heavy, inviscid_1m",
    ),
    m(
        "kernel.intern_ns",
        "ns",
        "lower",
        "kernel",
        "small share of bl_heavy",
    ),
    m("trace.span_ns", "ns", "lower", "trace", NONE),
    m(
        "bench.traced_overhead_frac",
        "ratio",
        "lower",
        "bench",
        NONE,
    ),
    m("bench.coverage_min", "ratio", "higher", "bench", NONE),
];

/// The per-layer values of one traced pass: every glossary name, zero
/// where the workload bypasses the layer.
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    /// Records `value` under a glossary name (a typo is a bug, not a new
    /// metric).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer glossary"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer glossary"))
    }

    /// `(name, value, unit)` in glossary order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name], m.unit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_follows_the_glossary() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(json::Value::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(json::Value::as_str).expect(k).to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let want = |rows: Vec<(&str, &str, &str)>| -> Vec<(String, String, String)> {
            rows.into_iter()
                .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            want(
                END_TO_END
                    .iter()
                    .map(|m| (m.name, m.unit, m.better))
                    .collect()
            )
        );
        assert_eq!(
            listed("per_layer"),
            want(
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.better))
                    .collect()
            )
        );
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
        for e in doc.get("end_to_end").and_then(json::Value::as_arr).unwrap() {
            let b = e.get("bound").and_then(json::Value::as_f64).expect("bound");
            assert!(b > 0.0 && b <= 0.25);
        }
    }

    #[test]
    fn glossary_is_within_the_contract() {
        assert!(PER_LAYER.len() <= 128);
        let mut seen = HashSet::new();
        for name in PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(END_TO_END.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for unit in PER_LAYER
            .iter()
            .map(|m| m.unit)
            .chain(END_TO_END.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let mut l = Layers::new();
        l.set("merge.tree_s", 0.5);
        assert_eq!(l.get("merge.tree_s"), 0.5);
        assert_eq!(l.rows().count(), PER_LAYER.len());
    }

    #[test]
    fn release_profile_matches_the_repository_root() {
        // Profiles come from the workspace root of the build — for this
        // package its own Cargo.toml — so the tables are copied and must
        // not drift from the product's.
        let table = |src: &str, header: &str| -> Vec<String> {
            src.lines()
                .skip_while(|l| l.trim() != header)
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let (root, ours) = (
            include_str!("../../Cargo.toml"),
            include_str!("../Cargo.toml"),
        );
        for header in ["[profile.release]", "[profile.bench]"] {
            assert!(!table(root, header).is_empty());
            assert_eq!(table(root, header), table(ours, header), "{header}");
        }
    }
}
