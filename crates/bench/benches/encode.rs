//! The byte work of a cache miss: encoding a finished mesh and hashing
//! the encoding.
//!
//! * `encode/canonical_ascii/naca85` — [`write_ascii_canonical`] on the
//!   `serve_miss` warm-up shape (NACA 0012, 85 points per side, far-field
//!   cap 0.045): the keyed sorts plus the line encoder, into a `Vec`. The
//!   `bench-smoke` CI job gates it against
//!   `bench_results/encode_baseline.json`.
//! * `encode/sha256/7mb` — [`sha256_hex`] over a seeded 7 MB buffer, the
//!   size of one response. It has no baseline on purpose: the SHA-NI path
//!   runs only where the CPU has the SHA extensions, so its time depends
//!   on the runner, and the gate reports an id without a baseline
//!   without failing on it.

use adm_core::{generate, sha256_hex, MeshConfig};
use adm_delaunay::io::write_ascii_canonical;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn bench_canonical_ascii(c: &mut Criterion) {
    let mut config = MeshConfig::naca0012(85);
    config.sizing_max_area = 0.045;
    config.merge_threads = 0;
    let mesh = generate(&config).mesh;
    let mut bytes = Vec::new();
    c.bench_function("encode/canonical_ascii/naca85", |b| {
        b.iter(|| {
            bytes.clear();
            write_ascii_canonical(&mesh, &mut bytes).expect("Vec write cannot fail");
            std::hint::black_box(bytes.len())
        })
    });
}

fn bench_sha256(c: &mut Criterion) {
    let mut r = rand::rngs::StdRng::seed_from_u64(7);
    let data: Vec<u8> = (0..7 << 20).map(|_| r.gen_range(0u8..=255)).collect();
    c.bench_function("encode/sha256/7mb", |b| {
        b.iter(|| std::hint::black_box(sha256_hex(&data)))
    });
}

fn encode_benches(c: &mut Criterion) {
    bench_canonical_ascii(c);
    bench_sha256(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = encode_benches
}
criterion_main!(benches);
