//! The seven workloads and their seeded input generators.
//!
//! The program under test only ever sees what these functions generate
//! from `--seed`. Seed 1 is the geometry the workload table in
//! `README.md` states; other seeds move along a seven-step ladder
//! (`seed mod 7`) of slightly different geometries whose cost stays
//! within a fraction of a percent, so a metric's spread across seeds
//! measures the machine, not the inputs.

use adm_core::{AdaptOptions, MeshConfig};
use adm_simnet::DetRng;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Inviscid1m,
    BlHeavy,
    Ranks2_1m,
    AdaptNaca,
    PslgPlate,
    ServeMiss,
    ServeHot,
}

/// How much one run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Repeat the op until this many seconds have been measured.
    Seconds(f64),
    /// The fixed rep counts of the full ledger (`--all`).
    Full,
    /// Two reps / a handful of requests, same checks (`--smoke`).
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::Inviscid1m,
        Workload::BlHeavy,
        Workload::Ranks2_1m,
        Workload::AdaptNaca,
        Workload::PslgPlate,
        Workload::ServeMiss,
        Workload::ServeHot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Inviscid1m => "inviscid_1m",
            Workload::BlHeavy => "bl_heavy",
            Workload::Ranks2_1m => "ranks2_1m",
            Workload::AdaptNaca => "adapt_naca",
            Workload::PslgPlate => "pslg_plate",
            Workload::ServeMiss => "serve_miss",
            Workload::ServeHot => "serve_hot",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Position in [`Workload::ALL`]; stamped on every span as the
    /// workload id.
    pub fn id(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|w| *w == self)
            .expect("listed") as u64
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServeMiss | Workload::ServeHot)
    }

    /// Timed reps (ops, or requests over all clients for the serve
    /// workloads) under a fixed-count budget; `None` under a time budget.
    pub fn reps(self, budget: Budget) -> Option<usize> {
        let full = match self {
            Workload::Inviscid1m => 11,
            Workload::BlHeavy => 15,
            Workload::Ranks2_1m => 13,
            Workload::AdaptNaca => 5,
            Workload::PslgPlate => 15,
            Workload::ServeMiss => 56,
            Workload::ServeHot => 60_000,
        };
        let smoke = match self {
            Workload::ServeMiss => 8,
            Workload::ServeHot => 2_000,
            _ => 2,
        };
        match budget {
            Budget::Seconds(_) => None,
            Budget::Full => Some(full),
            Budget::Smoke => Some(smoke),
        }
    }
}

/// Pool width and `MeshConfig::merge_threads` for every op: this host has
/// two cores, and the value is part of what a number means, so it is
/// pinned here and recorded in every report instead of being read from
/// `ADM_MERGE_THREADS`.
pub fn merge_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(2))
        .unwrap_or(1)
}

/// The rung of the geometry ladder a seed selects. Seed 1 is rung 0.
pub fn rung(seed: u64) -> u64 {
    (seed + 6) % 7
}

/// Points-per-side shift of a seed's rung: 0, 1, 2, 3, −3, −2, −1. The
/// ladder is centred on the stated geometry because `GradedSizing` keeps
/// every ⌊n / 64⌋-th border point: four more points per side take the
/// NACA border past 256 points, the stride goes from 3 to 4, and every
/// sizing evaluation gets a fifth cheaper — 4 % of an `inviscid_1m` op
/// that would be the input's doing, not the machine's.
fn side_shift(seed: u64) -> isize {
    (rung(seed) as isize + 3) % 7 - 3
}

fn points_per_side(base: usize, seed: u64) -> usize {
    base.checked_add_signed(side_shift(seed))
        .expect("base exceeds the shift")
}

/// `inviscid_1m` / `ranks2_1m`: NACA 0012, fine far field, 512/512
/// subdomains — the fig11/12 scaling input (`adm_bench::scaling_config`),
/// about 1.2 M triangles.
pub fn inviscid_config(seed: u64) -> MeshConfig {
    let mut c = MeshConfig::naca0012(points_per_side(120, seed));
    c.growth = adm_blayer::Geometric::new(1e-4, 1.18).into();
    c.sizing_max_area = 0.005;
    c.nearbody_margin = 0.15;
    c.bl_subdomains = 512;
    c.inviscid_subdomains = 512;
    c.merge_threads = merge_threads();
    c
}

/// `bl_heavy`: three-element high-lift case with a slow-growing layer,
/// so the boundary-layer cloud is most of the mesh.
pub fn bl_heavy_config(seed: u64) -> MeshConfig {
    let mut c = MeshConfig::three_element(points_per_side(1200, seed));
    c.growth = adm_blayer::Geometric::new(1e-5, 1.08).into();
    c.sizing_max_area = 1.0;
    c.bl_subdomains = 64;
    c.inviscid_subdomains = 64;
    c.merge_threads = merge_threads();
    c
}

/// `adapt_naca`: a coarse NACA 0012 driven through two
/// solve → estimate → remesh cycles. The ladder turns the free stream by
/// hundredths of a degree: the metric, and with it the second cycle's
/// mesh, changes while the cost does not.
pub fn adapt_inputs(seed: u64) -> (MeshConfig, AdaptOptions) {
    let mut c = MeshConfig::naca0012(16);
    c.sizing_max_area = 6.0;
    c.bl_subdomains = 4;
    c.inviscid_subdomains = 4;
    c.merge_threads = merge_threads();
    let mut opts = AdaptOptions {
        cycles: 2,
        ..Default::default()
    };
    opts.flow.alpha_deg += 0.01 * rung(seed) as f64;
    (c, opts)
}

/// Sizing of `pslg_plate`: `GradedSizing(h0, rate, max_area, samples)`.
pub const PLATE_SIZING: (f64, f64, f64, usize) = (0.001, 0.02, 1.0, 256);

/// `pslg_plate`: the text of `examples/two_part_plate.poly` with the
/// stiffener block (vertices 13–16) moved right by `rung / 64` — an exact
/// binary fraction, so the plate itself is bit-identical on every rung.
pub fn plate_poly_text(seed: u64) -> String {
    const BASE: &str = include_str!("../../examples/two_part_plate.poly");
    let dx = rung(seed) as f64 / 64.0;
    if dx == 0.0 {
        return BASE.to_string();
    }
    let mut out = String::with_capacity(BASE.len() + 64);
    let mut in_points = false;
    let mut seen_header = false;
    for line in BASE.lines() {
        let toks: Vec<&str> = line.split_whitespace().collect();
        let data = !toks.is_empty() && !toks[0].starts_with('#');
        if data && !seen_header {
            seen_header = true;
            in_points = true;
        } else if data && in_points && toks.len() == 2 {
            // The segment header (`16 0`) ends the point section.
            in_points = false;
        } else if data && in_points && toks.len() == 3 {
            let id: usize = toks[0].parse().expect("vertex id");
            if id >= 13 {
                let x: f64 = toks[1].parse().expect("vertex x");
                out.push_str(&format!("{id} {} {}\n", x + dx, toks[2]));
                continue;
            }
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Fraction in `[0, 1)` drawn from the seed.
fn seed_fraction(seed: u64, stream: u64) -> f64 {
    DetRng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).unit()
}

/// Relative perturbation in `[1, 1 + 1e-6)` drawn from the seed: enough
/// to make a request a key of its own, too little to change what meshing
/// it costs.
fn seed_nudge(seed: u64, stream: u64) -> f64 {
    1.0 + 1e-6 * seed_fraction(seed, stream)
}

/// `serve_miss` request `i`: NACA with `60 + i mod 50` points per side
/// and a far-field area cap walking `[0.04, 0.05)` on a golden-ratio
/// rotation, so requests are pairwise distinct and every window of
/// consecutive requests covers the cap range evenly. The seed only nudges
/// the cap: keys are disjoint between seeds while request `i` is the same
/// work and the same response size on every seed — sizes drawn per seed
/// decided whether the 64 MB memory LRU held eight entries or nine, and
/// with that a tenth of `peak_rss_mb`.
pub fn miss_request(seed: u64, i: usize) -> MeshConfig {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let frac = (i as f64 * GOLDEN).fract();
    let mut c = MeshConfig::naca0012(60 + i % 50);
    c.sizing_max_area = (0.04 + 0.01 * frac) * seed_nudge(seed, 1);
    c
}

/// The `serve_miss` warm-up request: the mid-range shape, outside the
/// measured `(points, cap)` pairs.
pub fn miss_warmup(seed: u64) -> MeshConfig {
    let mut c = MeshConfig::naca0012(85);
    c.sizing_max_area = 0.045 * seed_nudge(seed, 0);
    c
}

/// Number of pre-warmed keys `serve_hot` draws from.
pub const HOT_KEYS: usize = 16;

/// `serve_hot` key `k` of `HOT_KEYS`: small NACA meshes (≈ 0.9 MB
/// encoded) with the seed's nudge on the far-field cap, so each seed has
/// its own sixteen keys of the same sizes.
pub fn hot_request(seed: u64, k: usize) -> MeshConfig {
    let mut c = MeshConfig::naca0012(40 + k);
    c.sizing_max_area = 0.5 * seed_nudge(seed, 2 + k as u64);
    c
}

/// The key-index stream of one `serve_hot` client.
pub fn hot_draws(seed: u64, client: usize) -> DetRng {
    DetRng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xC11E_0000 + client as u64))
}

/// `n` seeded probe points in the box `[-r, r]²`.
pub fn probe_points(seed: u64, n: usize, r: f64) -> Vec<adm_geom::Point2> {
    let mut rng = DetRng::new(seed ^ 0x50_52_4F_42_45);
    let mut coord = || r * (2.0 * rng.unit() - 1.0);
    (0..n)
        .map(|_| adm_geom::Point2::new(coord(), coord()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adm_serve::{cache_key, canonical_request};
    use std::collections::HashSet;

    #[test]
    fn names_round_trip_and_seed_one_is_the_stated_geometry() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(rung(1), 0);
        assert_eq!(rung(8), 0);
        assert_eq!((0..7).map(rung).collect::<HashSet<_>>().len(), 7);
        assert_eq!(
            (1..=7).map(side_shift).collect::<Vec<_>>(),
            [0, 1, 2, 3, -3, -2, -1]
        );
        assert_eq!(
            inviscid_config(1).pslg.loops[0].points.len(),
            MeshConfig::naca0012(120).pslg.loops[0].points.len()
        );
        assert_eq!(
            plate_poly_text(1),
            include_str!("../../examples/two_part_plate.poly")
        );
        assert!(plate_poly_text(2).contains("13 5.015625 0.0"));
    }

    #[test]
    fn same_seed_gives_identical_request_bytes() {
        for i in [0, 1, 55] {
            let a = canonical_request(&miss_request(7, i)).unwrap();
            let b = canonical_request(&miss_request(7, i)).unwrap();
            assert_eq!(a, b);
        }
        for k in 0..HOT_KEYS {
            assert_eq!(
                canonical_request(&hot_request(3, k)).unwrap(),
                canonical_request(&hot_request(3, k)).unwrap()
            );
        }
        let draws = |seed| {
            let mut r = hot_draws(seed, 0);
            (0..32)
                .map(|_| r.range(0, HOT_KEYS as u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        assert_eq!(probe_points(9, 8, 2.0), probe_points(9, 8, 2.0));
    }

    #[test]
    fn miss_keys_are_distinct_within_a_seed_and_disjoint_between_seeds() {
        let keys = |seed| -> HashSet<String> {
            (0..56)
                .map(|i| cache_key(&miss_request(seed, i)).unwrap())
                .collect()
        };
        let (a, b, c) = (keys(1), keys(2), keys(1 + 7));
        assert_eq!(a.len(), 56, "all 56 keys distinct");
        let warm = |seed| cache_key(&miss_warmup(seed)).unwrap();
        assert!(!a.contains(&warm(1)) && warm(1) != warm(2));
        assert_eq!(b.len(), 56);
        assert!(a.is_disjoint(&b));
        // Seeds on the same geometry rung still draw their own requests.
        assert!(a.is_disjoint(&c));
        let hot = |seed| -> HashSet<String> {
            (0..HOT_KEYS)
                .map(|k| cache_key(&hot_request(seed, k)).unwrap())
                .collect()
        };
        assert_eq!(hot(1).len(), HOT_KEYS);
        assert!(hot(1).is_disjoint(&hot(2)));
    }
}
