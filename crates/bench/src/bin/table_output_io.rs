//! §IV output-cost table.
//!
//! The paper: "The sequential time to write an ASCII file for the mesh
//! with 172,768,355 triangles is 9 minutes. ... If a flow solver can
//! handle a distributed mesh or read from a binary file, the writing time
//! will be less." This binary measures ASCII vs binary write throughput
//! on a generated mesh and extrapolates both to the paper's mesh size.

use adm_bench::{maybe_write_trace, write_json};
use adm_core::{generate, MeshConfig};
use adm_delaunay::io::{write_ascii, write_binary};
use adm_trace::json::obj;
use std::time::Instant;

fn main() {
    let mut config = MeshConfig::naca0012(120);
    config.sizing_max_area = 0.1;
    config.bl_subdomains = 32;
    config.inviscid_subdomains = 32;
    eprintln!("[io] meshing ...");
    let result = generate(&config);
    let n = result.stats.total_triangles;
    eprintln!("[io] {} triangles", n);

    // Write into memory (measuring serialization, not disk): the paper's
    // point is format cost, and this container's disk is not a cluster
    // filesystem.
    let mut ascii = Vec::with_capacity(64 << 20);
    let t0 = Instant::now();
    write_ascii(&result.mesh, &mut ascii).unwrap();
    let ascii_s = t0.elapsed().as_secs_f64();
    let mut binary = Vec::with_capacity(32 << 20);
    let t0 = Instant::now();
    write_binary(&result.mesh, &mut binary).unwrap();
    let binary_s = t0.elapsed().as_secs_f64();

    let paper_n = 172_768_355f64;
    let ascii_paper_min = ascii_s * paper_n / n as f64 / 60.0;
    let binary_paper_min = binary_s * paper_n / n as f64 / 60.0;
    println!("format   bytes        write(s)   extrapolated to 172.8M tris");
    println!(
        "ascii    {:>10}   {ascii_s:>8.3}   {ascii_paper_min:>6.1} min  (paper: 9 min, disk-bound)",
        ascii.len()
    );
    println!(
        "binary   {:>10}   {binary_s:>8.3}   {binary_paper_min:>6.1} min",
        binary.len()
    );
    println!(
        "binary is {:.1}x smaller and {:.1}x faster to serialize",
        ascii.len() as f64 / binary.len() as f64,
        ascii_s / binary_s
    );

    let report = obj! {
        "mesh_triangles": n,
        "ascii_bytes": ascii.len(),
        "binary_bytes": binary.len(),
        "ascii_s": ascii_s,
        "binary_s": binary_s,
        "size_ratio": ascii.len() as f64 / binary.len() as f64,
        "speed_ratio": ascii_s / binary_s,
        "ascii_extrapolated_min_at_paper_size": ascii_paper_min,
        "binary_extrapolated_min_at_paper_size": binary_paper_min,
        "paper_reference":
            "ASCII write of the 172.8M-triangle mesh took 9 minutes; binary is cheaper",
    };
    let path = write_json("table_output_io", &report).expect("write report");
    eprintln!("[io] wrote {}", path.display());
    maybe_write_trace(&result.trace).expect("write trace");
}
