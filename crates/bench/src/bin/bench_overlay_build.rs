//! Set-up cost of the direct-hop overlay: `StructuredOverlay::build`
//! over the FemPIC duct at three mesh/overlay sizes.
//!
//! Each case times nine builds (after one untimed warm-up) and records
//! the median and interquartile range in ms, with an FNV-1a digest of
//! the resulting `cell_map` (its `u32`s, little-endian) and the host
//! facts the times depend on. Run from the repo root.
//!
//! ```text
//! bench_overlay_build            # writes results/BENCH_overlay_build.json
//! bench_overlay_build --check    # compares against that file
//! ```
//!
//! `--check` builds the smallest case once and exits 1 unless its
//! digest equals the one recorded in the file: it checks that the
//! cell-map is unchanged, never how long the build took.

use oppic_core::json::{self, Json, Obj};
use oppic_core::telemetry::fnv1a;
use oppic_mesh::{StructuredOverlay, TetMesh};
use std::process::ExitCode;
use std::time::Instant;

const SCHEMA: &str = "oppic-overlay-build-v1";

/// The committed record, relative to the repo root.
const OUT: &str = "results/BENCH_overlay_build.json";

/// Timed builds per case.
const REPS: usize = 9;

/// The duct's extents (FemPIC's `lx`, `ly`, `lz` defaults).
const LENGTHS: [f64; 3] = [2.0, 1.0, 1.0];

/// (hexahedra per axis, overlay voxels per axis); the first is the
/// benchmark's `configs/fempic_small.cfg` shape.
const CASES: [(usize, usize); 3] = [(8, 32), (16, 64), (24, 96)];

fn case_name(hex: usize, res: usize) -> String {
    format!("duct{hex}_overlay{res}")
}

fn build(hex: usize, res: usize) -> (TetMesh, StructuredOverlay) {
    let mesh = TetMesh::duct(hex, hex, hex, LENGTHS[0], LENGTHS[1], LENGTHS[2]);
    let ov = StructuredOverlay::build(&mesh, [res; 3]);
    (mesh, ov)
}

fn digest(cell_map: &[u32]) -> String {
    let bytes: Vec<u8> = cell_map.iter().flat_map(|c| c.to_le_bytes()).collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// The `q`-quantile of sorted samples, interpolated linearly.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    Obj::default()
        .raw(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .str("cpu", &cpu_model())
        .str("arch", std::env::consts::ARCH)
        .str(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .end()
}

fn measure(hex: usize, res: usize) -> String {
    let (mesh, ov) = build(hex, res);
    let mut ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let ov = StructuredOverlay::build(&mesh, [res; 3]);
            let dt = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(ov);
            dt
        })
        .collect();
    let samples = json::array(ms.iter().map(|&v| json::num(v)));
    ms.sort_by(f64::total_cmp);
    let (q1, med, q3) = (quantile(&ms, 0.25), quantile(&ms, 0.5), quantile(&ms, 0.75));
    println!(
        "{:<18} {:>7} cells {:>8} voxels  median {med:>9.3} ms  IQR {:>7.3} ms  cell_map {}",
        case_name(hex, res),
        mesh.n_cells(),
        ov.cell_map.len(),
        q3 - q1,
        digest(&ov.cell_map)
    );
    Obj::default()
        .str("case", &case_name(hex, res))
        .raw("hex_per_axis", hex)
        .raw("cells", mesh.n_cells())
        .raw("overlay_res", res)
        .raw("voxels", ov.cell_map.len())
        .raw("build_ms", samples)
        .raw("median_ms", json::num(med))
        .raw("q1_ms", json::num(q1))
        .raw("q3_ms", json::num(q3))
        .raw("iqr_ms", json::num(q3 - q1))
        .str("cell_map_fnv1a", &digest(&ov.cell_map))
        .end()
}

/// The recorded digest of the smallest case against a fresh build.
fn check() -> Result<(), String> {
    let text = std::fs::read_to_string(OUT).map_err(|e| format!("{OUT}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{OUT}: {e}"))?;
    let (hex, res) = CASES[0];
    let name = case_name(hex, res);
    let want = doc
        .get("cases")
        .and_then(Json::as_arr)
        .and_then(|cases| {
            cases
                .iter()
                .find(|c| c.get("case").and_then(Json::as_str) == Some(name.as_str()))
        })
        .and_then(|c| c.get("cell_map_fnv1a"))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{OUT}: no cell_map_fnv1a for case {name}"))?;
    let got = digest(&build(hex, res).1.cell_map);
    if got != want {
        return Err(format!(
            "{name}: cell_map digest {got}, {OUT} records {want}"
        ));
    }
    println!("{name}: cell_map digest {got} matches {OUT}");
    Ok(())
}

/// Time every case and write the record.
fn record() -> Result<(), String> {
    let cases: Vec<String> = CASES.iter().map(|&(hex, res)| measure(hex, res)).collect();
    let record = Obj::default()
        .str("schema", SCHEMA)
        .raw("host", host_json())
        .raw("reps", REPS)
        .raw(
            "lengths",
            json::array(LENGTHS.iter().map(|&l| json::num(l))),
        )
        .raw("cases", format!("[\n  {}\n]", cases.join(",\n  ")))
        .end();
    if let Some(dir) = std::path::Path::new(OUT).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(OUT, record + "\n").map_err(|e| format!("cannot write {OUT}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [] => record(),
        [flag] if flag == "--check" => check(),
        _ => Err("usage: bench_overlay_build [--check]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_overlay_build: {e}");
            ExitCode::FAILURE
        }
    }
}
