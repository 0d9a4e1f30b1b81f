//! Micro-probes of single layers: each times a tight loop over one
//! public function with seeded inputs and reports the mean cost per
//! call. They explain small shares of the end-to-end numbers; none of
//! them is an end-to-end metric.

use crate::inputs::probe_points;
use crate::metrics::Layers;
use adm_core::{sha256_hex, MeshConfig, SizingFn};
use adm_delaunay::mesh::Mesh;
use adm_geom::{incircle, orient2d, Point2};
use adm_kernel::MeshArena;
use adm_serve::{canonical_request, parse_request, Client};
use adm_trace::{Tracer, Track};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn ns_per_call(n: usize, t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// `geom.*`, `kernel.intern_ns`, `trace.span_ns`: the workload-independent
/// floor under every layer above them.
pub fn substrate(seed: u64, out: &mut Layers) {
    const N: usize = 200_000;
    // Half random, half near-degenerate (a fourth point nudged off the
    // line / circle through the others by one part in 1e13), so the
    // adaptive ladder's slow stages are exercised too.
    let pts = probe_points(seed, N + 3, 1.0);
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..N {
        let (a, b, c) = (pts[i], pts[i + 1], pts[i + 2]);
        let c = if i % 2 == 0 {
            c
        } else {
            let t = 0.5 + 1e-13 * i as f64;
            Point2::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))
        };
        acc += orient2d(black_box(a), black_box(b), black_box(c));
    }
    black_box(acc);
    out.set("geom.orient2d_ns", ns_per_call(N, t));

    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..N {
        let (a, b, c, d) = (pts[i], pts[i + 1], pts[i + 2], pts[i + 3]);
        let d = if i % 2 == 0 {
            d
        } else {
            // The reflection of `a` through the midpoint of `bc` is
            // cocircular with a, b, c up to rounding.
            Point2::new(b.x + c.x - a.x, b.y + c.y - a.y + 1e-13)
        };
        acc += incircle(black_box(a), black_box(b), black_box(c), black_box(d));
    }
    black_box(acc);
    out.set("geom.incircle_ns", ns_per_call(N, t));

    let t = Instant::now();
    let mut arena = MeshArena::with_capacity(N);
    black_box(arena.intern_all(&pts[..N]));
    out.set("kernel.intern_ns", ns_per_call(N, t));

    let tracer = Tracer::wall();
    let t = Instant::now();
    for _ in 0..N {
        tracer.span(Track::ROOT, "probe").close();
    }
    out.set("trace.span_ns", ns_per_call(N, t));
}

/// Mean cost of one sizing evaluation over 10⁵ seeded probe points in
/// the box the refinement actually queries.
pub fn sizing_eval_ns(seed: u64, sizing: &dyn SizingFn, radius: f64) -> f64 {
    const N: usize = 100_000;
    let pts = probe_points(seed, N, radius);
    let t = Instant::now();
    let mut acc = 0.0;
    for &p in &pts {
        acc += sizing.target_area(black_box(p));
    }
    black_box(acc);
    ns_per_call(N, t)
}

/// `io.*` and `hash.*` on one mesh: canonical ASCII encode, sha256 of the
/// encoding, binary encode, ASCII parse. Returns the encoding's digest.
pub fn encode_hash(mesh: &Mesh, out: &mut Layers) -> String {
    let mb = |bytes: usize, s: f64| bytes as f64 / 1e6 / s.max(1e-12);
    let t = Instant::now();
    let mut ascii = Vec::new();
    adm_delaunay::io::write_ascii_canonical(mesh, &mut ascii).expect("in-memory write");
    let ascii_s = t.elapsed().as_secs_f64();
    out.set("io.ascii_canonical_s", ascii_s);
    out.set("io.ascii_mb_per_s", mb(ascii.len(), ascii_s));
    out.set("io.response_bytes", ascii.len() as f64);

    let t = Instant::now();
    let digest = sha256_hex(&ascii);
    out.set(
        "hash.sha256_mb_per_s",
        mb(ascii.len(), t.elapsed().as_secs_f64()),
    );

    let t = Instant::now();
    let mut bin = Vec::new();
    adm_delaunay::io::write_binary(mesh, &mut bin).expect("in-memory write");
    black_box(&bin);
    out.set("io.binary_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    black_box(adm_delaunay::io::read_ascii(&mut ascii.as_slice()).expect("canonical parses"));
    out.set("io.read_ascii_s", t.elapsed().as_secs_f64());
    digest
}

/// `request.*`: encode, parse and content-address one request. Each loop
/// is one span on `tracer`, so the numbers are the spans' own.
pub fn request_path(tracer: &Tracer, config: &MeshConfig, out: &mut Layers) {
    const N: usize = 200;
    let us = |(a, b): (Duration, Duration)| (b - a).as_secs_f64() * 1e6 / N as f64;
    let payload = canonical_request(config).expect("cacheable");
    out.set("request.bytes", payload.len() as f64);
    let span = tracer.span(Track::ROOT, "request.encode");
    for _ in 0..N {
        black_box(canonical_request(black_box(config)).expect("cacheable"));
    }
    out.set("request.encode_us", us(span.close()));
    let span = tracer.span(Track::ROOT, "request.parse");
    for _ in 0..N {
        black_box(parse_request(black_box(&payload)).expect("round-trips"));
    }
    out.set("request.parse_us", us(span.close()));
    let span = tracer.span(Track::ROOT, "request.key");
    for _ in 0..N {
        black_box(sha256_hex(black_box(payload.as_bytes())));
    }
    out.set("request.key_us", us(span.close()));
}

/// `wire.ping_rtt_us`: mean PING round trip on an established connection.
pub fn ping_rtt_us(client: &mut Client) -> f64 {
    const N: usize = 2_000;
    let t = Instant::now();
    for _ in 0..N {
        client.ping().expect("PING answered");
    }
    t.elapsed().as_secs_f64() * 1e6 / N as f64
}
