//! `shard-cat` — offline consumer of distributed shard directories.
//!
//! Reads a manifest written by `admesh --out-shards DIR` (or any
//! pipeline run with `MeshConfig::shard_out` set), proves the shard set
//! is globally consistent — every `.adm` file matches its digest and
//! parses as a manifold mesh, and the shards agree bitwise on every
//! stamped interface vertex they share — and, unless `--verify-only`,
//! replays the canonical spliced merge to reconstruct the unified mesh,
//! identical to the one the pipeline would have produced in process.
//!
//! ```sh
//! shard-cat shards/ --out mesh.txt          # verify + reconstruct (ASCII)
//! shard-cat shards/ --binary-out mesh.bin   # verify + reconstruct (binary)
//! shard-cat shards/ --verify-only           # consistency check alone
//! ```
//!
//! Exits 1 on any inconsistency, including a set whose union is not
//! manifold, so it doubles as the shard directory's fsck.

use adm2d::core::{read_manifest, reconstruct, verify_shards};
use adm2d::delaunay::io::{write_ascii, write_ascii_canonical, write_binary};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
shard-cat — verify and reconstruct distributed mesh shard directories

USAGE:
    shard-cat <DIR> [OPTIONS]

OPTIONS:
    --out <PATH>           write the reconstructed mesh as Triangle ASCII
    --binary-out <PATH>    write the reconstructed mesh as compact binary
    --canonical            write canonical (sorted) ASCII to stdout
    --verify-only          consistency check only, skip reconstruction
    --quiet                suppress the report
    --help                 show this help
";

struct Args {
    dir: PathBuf,
    out: Option<String>,
    binary_out: Option<String>,
    canonical: bool,
    verify_only: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut dir: Option<PathBuf> = None;
    let mut out = None;
    let mut binary_out = None;
    let mut canonical = false;
    let mut verify_only = false;
    let mut quiet = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--out" => out = Some(value(&argv, &mut i, "--out")?),
            "--binary-out" => binary_out = Some(value(&argv, &mut i, "--binary-out")?),
            "--canonical" => canonical = true,
            "--verify-only" => verify_only = true,
            "--quiet" => quiet = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            path => {
                if dir.replace(PathBuf::from(path)).is_some() {
                    return Err("exactly one shard directory expected".to_string());
                }
            }
        }
        i += 1;
    }
    Ok(Args {
        dir: dir.ok_or_else(|| "shard directory required".to_string())?,
        out,
        binary_out,
        canonical,
        verify_only,
        quiet,
    })
}

fn run(args: &Args) -> Result<(), String> {
    let dir = args.dir.as_path();
    let manifest = read_manifest(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = verify_shards(dir, &manifest).map_err(|e| format!("{}: {e}", dir.display()))?;
    if !args.quiet {
        eprintln!(
            "shards           : {} ({} triangles, {} vertices)",
            report.shard_count,
            manifest.shards.iter().map(|s| s.triangles).sum::<u64>(),
            manifest.shards.iter().map(|s| s.vertices).sum::<u64>()
        );
        eprintln!(
            "interface        : {} shared stamped vertices",
            report.shared_stamped
        );
    }
    if !report.is_consistent() {
        for p in &report.problems {
            eprintln!("INCONSISTENT: {p}");
        }
        return Err(format!(
            "{} inconsistency(ies) found",
            report.problems.len()
        ));
    }
    if !args.quiet {
        eprintln!("consistency      : ok");
    }
    if args.verify_only {
        return Ok(());
    }
    let mesh = reconstruct(dir, &manifest).map_err(|e| format!("{}: {e}", dir.display()))?;
    if !args.quiet {
        eprintln!(
            "reconstructed    : {} triangles, {} vertices",
            mesh.num_triangles(),
            mesh.num_vertices()
        );
    }
    let write = |path: &str, f: &dyn Fn(&mut std::fs::File) -> std::io::Result<()>| {
        std::fs::File::create(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|mut file| f(&mut file).map_err(|e| format!("{path}: {e}")))
    };
    if let Some(p) = &args.out {
        write(p, &|w| write_ascii(&mesh, w))?;
        if !args.quiet {
            eprintln!("wrote {p}");
        }
    }
    if let Some(p) = &args.binary_out {
        write(p, &|w| write_binary(&mesh, w))?;
        if !args.quiet {
            eprintln!("wrote {p}");
        }
    }
    if args.canonical {
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        write_ascii_canonical(&mesh, &mut lock).map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
