//! Compress-then-decompose vs the exact two-phase pipeline: end-to-end
//! wall time and fit on low-mlrank synthetics.
//!
//! Each case runs the full `TwoPcp` driver twice on the same tensor at a
//! matched tolerance: once on the default exact path (Phase 1 + Phase 2)
//! and once with [`CompressOptions`] set, which replaces both phases by
//! streaming HOSVD compression, CP on the small core, expansion and one
//! exact polish sweep. The data is CP-structured (rank = min mlrank), so
//! both paths can reach the same fit and the wall-time ratio isolates the
//! pipeline, not the model capacity.
//!
//! A one-shot accounted pass per case is written to `BENCH_compress.json`
//! at the workspace root: median ns for both paths, their fits, the gap,
//! and the speedup. Compression once won 8.5× on the order-4 cell; since
//! the exact path folds every order onto the fused 3-way MTTKRP it wins
//! only ~1.0–1.3× there and loses on order 3, at fit gaps within 1e-2.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tpcp_cp::{CompressOptions, CpModel};
use tpcp_linalg::Mat;
use tpcp_tensor::{random_factor, DenseTensor};
use twopcp::{TwoPcp, TwoPcpConfig, TwoPcpOutcome};

/// Where the machine-readable artifact lands (the workspace root).
const ARTIFACT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compress.json");

/// One artifact line: a cell name and its measured quantities.
struct Cell {
    name: String,
    fields: Vec<(&'static str, f64)>,
}

fn write_artifact(cells: &[Cell]) {
    let mut out = String::from("{\n  \"bench\": \"compress\",\n  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\"", cell.name));
        for (k, v) in &cell.fields {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                out.push_str(&format!(", \"{k}\": {}", *v as i64));
            } else {
                out.push_str(&format!(", \"{k}\": {v:.6}"));
            }
        }
        out.push('}');
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"notes\": \"Each cell runs the full TwoPcp driver end to end on \
         the same CP-structured low-mlrank tensor at matched tolerance: \
         exact = default two-phase path; compress = streaming HOSVD \
         compression, CP on the core, expansion, one exact polish sweep. \
         speedup = exact_ns / compress_ns; fit_gap = fit_exact - \
         fit_compress (positive means the exact path fit better). \
         Compression won 8.5x on order4 before the exact path folded every \
         order onto the fused 3-way MTTKRP; it now wins ~1.0-1.3x on order4 and \
         loses on order3, at fit gaps within 1e-2.\"\n",
    );
    out.push_str("}\n");
    match std::fs::write(ARTIFACT_PATH, &out) {
        Ok(()) => eprintln!("compress: artifact written to {ARTIFACT_PATH}"),
        Err(e) => eprintln!("compress: could not write artifact: {e}"),
    }
}

/// Median wall ns per call of `f` over `reps` accounted runs.
fn measure_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A CP-structured tensor of rank `f` (multilinear rank ≤ `f` per mode).
fn low_mlrank_tensor(dims: &[usize], f: usize, seed: u64) -> DenseTensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let factors: Vec<Mat> = dims
        .iter()
        .map(|&d| random_factor(d, f, &mut rng))
        .collect();
    CpModel::new(vec![1.0; f], factors)
        .unwrap()
        .reconstruct_dense()
}

struct Case {
    label: &'static str,
    dims: Vec<usize>,
    /// CP rank of the synthetic = per-mode mlrank cap handed to compress.
    f: usize,
    x: DenseTensor,
}

fn cases() -> Vec<Case> {
    let build = |label, dims: Vec<usize>, f, seed| Case {
        label,
        f,
        x: low_mlrank_tensor(&dims, f, seed),
        dims,
    };
    vec![
        build("order3", vec![64, 64, 64], 4, 3),
        // The acceptance cell: order-4, low mlrank, Phase-1-block scale.
        build("order4", vec![32, 32, 32, 32], 4, 4),
    ]
}

fn config(case: &Case, compress: bool) -> TwoPcpConfig {
    let mut cfg = TwoPcpConfig::new(case.f)
        .parts(vec![2])
        .max_virtual_iters(30)
        .tol(1e-6)
        .seed(11);
    if compress {
        cfg = cfg.compress(
            CompressOptions::builder()
                .mlrank(vec![case.f; case.dims.len()])
                .build()
                .unwrap(),
        );
    }
    cfg
}

fn run(case: &Case, compress: bool) -> TwoPcpOutcome {
    TwoPcp::new(config(case, compress))
        .decompose_dense(&case.x)
        .expect("decomposition failed")
}

fn bench_compress(c: &mut Criterion) {
    let cases = cases();
    let mut cells = Vec::new();

    let mut group = c.benchmark_group("compress");
    group.sample_size(10);
    for case in &cases {
        let exact_fit = run(case, false).fit;
        let compress_out = run(case, true);
        let compress_fit = compress_out.fit;
        let prov = compress_out.compress.expect("compress run has provenance");
        let kernel = config(case, false).kernel.resolved().label();

        group.bench_function(format!("{}_exact_{kernel}", case.label), |b| {
            b.iter(|| black_box(run(case, false)))
        });
        group.bench_function(format!("{}_compress_{kernel}", case.label), |b| {
            b.iter(|| black_box(run(case, true)))
        });

        let exact_ns = measure_ns(3, || {
            black_box(run(case, false));
        });
        let compress_ns = measure_ns(3, || {
            black_box(run(case, true));
        });
        let speedup = exact_ns / compress_ns;
        eprintln!(
            "compress/{}: exact {:.1} ms (fit {exact_fit:.6}), compressed {:.1} ms \
             (fit {compress_fit:.6}, core {:?}, energy {:.4}) — {speedup:.2}x",
            case.label,
            exact_ns / 1e6,
            compress_ns / 1e6,
            prov.core_shape,
            prov.energy,
        );
        cells.push(Cell {
            name: case.label.to_string(),
            fields: vec![
                ("exact_ns", exact_ns),
                ("compress_ns", compress_ns),
                ("speedup", speedup),
                ("fit_exact", exact_fit),
                ("fit_compress", compress_fit),
                ("fit_gap", exact_fit - compress_fit),
                ("retained_energy", prov.energy),
            ],
        });
    }
    group.finish();
    write_artifact(&cells);
}

criterion_group!(benches, bench_compress);
criterion_main!(benches);
