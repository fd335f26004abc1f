//! Kernel backend ablation: `TiledKernel` vs `ReferenceKernel` on the
//! five hot compute primitives behind the backend seam.
//!
//! Each cell measures one entry point — `matmul`, `t_matmul`, `matmul_t`,
//! `gram`, the fused dense 3-mode MTTKRP, and the order-4 MTTKRP per mode
//! (folded onto the same 3-way kernel) — at the paper's working rank
//! (F = 16) on Phase-2-representative shapes, for both backends at 1 and 4
//! threads. The two backends are bitwise-identical by contract
//! (pinned by the `kernel_equiv` suites), so the ratio is pure speed.
//!
//! The `par_dispatch` group measures what a fan-out costs: the round trip
//! of an empty region on the `tpcp-par` pool, and square tiled products of
//! side 32, 64 and 128 banded over one and two threads — on the pool and,
//! for comparison, on freshly spawned scoped threads. These products bypass
//! `ParConfig::for_work`, so they show the break-even that
//! `tpcp_par::PAR_GRAIN` is set from.
//!
//! A one-shot accounted pass per cell is written to `BENCH_kernels.json`
//! at the workspace root: median ns/call, nominal GFLOP/s, and the
//! tiled-vs-reference speedup ratio per (op × threads) cell, so the perf
//! trajectory stays machine-readable across PRs.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tpcp_cp::mttkrp_dense_kernel;
use tpcp_linalg::{KernelKind, Mat};
use tpcp_par::{par_chunks_mut, tile_rows_per_chunk, ParConfig, PAR_GRAIN};
use tpcp_tensor::{random_factor, DenseTensor};

/// Where the machine-readable artifact lands (the workspace root).
const ARTIFACT_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");

/// The paper's working rank: every shape below is F = 16.
const RANK: usize = 16;
/// Long mode of the matrix operands (a Phase-2 slab's row count).
const ROWS: usize = 960;
/// Dense cube side for the fused MTTKRP (a Phase-1 block).
const DIM: usize = 48;
/// Side of the order-4 MTTKRP block (a 40⁴ tensor on a 2⁴ grid).
const DIM4: usize = 20;
/// Per-mode names of the order-4 MTTKRP cells.
const MTTKRP4_OPS: [&str; 4] = [
    "mttkrp4_mode0",
    "mttkrp4_mode1",
    "mttkrp4_mode2",
    "mttkrp4_mode3",
];

/// One artifact line: a cell name and its measured quantities.
struct Cell {
    name: String,
    fields: Vec<(&'static str, f64)>,
}

fn write_artifact(cells: &[Cell]) {
    let mut out = String::from("{\n  \"bench\": \"kernels\",\n  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\"", cell.name));
        for (k, v) in &cell.fields {
            if v.fract() == 0.0 && v.abs() < 9e15 {
                out.push_str(&format!(", \"{k}\": {}", *v as i64));
            } else {
                out.push_str(&format!(", \"{k}\": {v:.3}"));
            }
        }
        out.push('}');
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str(
        "  \"notes\": \"ratio = reference_ns / tiled_ns (higher is better for the \
         tiled backend). GFLOP/s are nominal: 2mkn for the products, 2mk^2 for \
         gram (full, though tiled computes half and mirrors), 2|X|F for the \
         fused MTTKRP of every order. Backends are bitwise-identical by \
         contract, so the ratio is pure speed. par_dispatch: empty_region_tN \
         is the round trip of a region of N no-op tasks on the pool; \
         matmulS_{pool,spawn}_tN is an S^3 tiled product banded over N \
         threads (pool, or fresh scoped threads per call), speedup_vs_t1 its \
         speedup. The fan-out grain PAR_GRAIN is 2^18 multiply-adds: on a \
         2-core host two pool threads lose or tie at 32^3 (2^15) and win from \
         64^3 (2^18) up, while freshly spawned threads still lose at 64^3. \
         The 960x16x16 products above (245760 multiply-adds) fall below the \
         grain and run serially at t4 as well. Cells are single runs on a \
         shared host.\"\n",
    );
    out.push_str("}\n");
    match std::fs::write(ARTIFACT_PATH, &out) {
        Ok(()) => eprintln!("kernels: artifact written to {ARTIFACT_PATH}"),
        Err(e) => eprintln!("kernels: could not write artifact: {e}"),
    }
}

/// Median ns per call of `f` over a few accounted batches (the artifact's
/// one-shot number; criterion's own loop prints the console figures).
fn measure_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

struct Fixtures {
    a: Mat,         // ROWS × RANK: the slab factor / MTTKRP output shape
    small: Mat,     // RANK × RANK: the Hadamard-of-grams operand
    b_tall: Mat,    // ROWS × RANK: second tall operand for t_matmul
    x: DenseTensor, // DIM³ dense block
    factors: Vec<Mat>,
    x4: DenseTensor, // DIM4⁴ dense block
    factors4: Vec<Mat>,
}

fn fixtures() -> Fixtures {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    Fixtures {
        a: random_factor(ROWS, RANK, &mut rng),
        small: random_factor(RANK, RANK, &mut rng),
        b_tall: random_factor(ROWS, RANK, &mut rng),
        x: tpcp_tensor::random_dense(&[DIM, DIM, DIM], &mut rng),
        factors: (0..3).map(|_| random_factor(DIM, RANK, &mut rng)).collect(),
        x4: tpcp_tensor::random_dense(&[DIM4; 4], &mut rng),
        factors4: (0..4)
            .map(|_| random_factor(DIM4, RANK, &mut rng))
            .collect(),
    }
}

/// One measurable entry point behind the seam.
type Op<'a> = (&'static str, f64, Box<dyn Fn(&ParConfig, KernelKind) + 'a>);

/// (op name, nominal flops, runner) for each kernel entry point.
fn ops(fx: &Fixtures) -> Vec<Op<'_>> {
    let refs: Vec<&Mat> = fx.factors.iter().collect();
    let mkn = (ROWS * RANK * RANK) as f64;
    let mut ops: Vec<Op<'_>> = vec![
        (
            "matmul",
            2.0 * mkn,
            Box::new(|par: &ParConfig, kind: KernelKind| {
                black_box(fx.a.matmul_kernel(&fx.small, par, kind).unwrap());
            }),
        ),
        (
            "t_matmul",
            2.0 * mkn,
            Box::new(|par: &ParConfig, kind: KernelKind| {
                black_box(fx.a.t_matmul_kernel(&fx.b_tall, par, kind).unwrap());
            }),
        ),
        (
            "matmul_t",
            2.0 * mkn,
            Box::new(|par: &ParConfig, kind: KernelKind| {
                black_box(fx.a.matmul_t_kernel(&fx.small, par, kind).unwrap());
            }),
        ),
        (
            "gram",
            2.0 * mkn,
            Box::new(|par: &ParConfig, kind: KernelKind| {
                black_box(fx.a.gram_kernel(par, kind));
            }),
        ),
        (
            "mttkrp",
            2.0 * (DIM * DIM * DIM) as f64 * RANK as f64,
            Box::new(move |par: &ParConfig, kind: KernelKind| {
                black_box(mttkrp_dense_kernel(&fx.x, &refs, 0, par, kind).unwrap());
            }),
        ),
    ];
    for (mode, name) in MTTKRP4_OPS.into_iter().enumerate() {
        let refs4: Vec<&Mat> = fx.factors4.iter().collect();
        ops.push((
            name,
            2.0 * fx.x4.len() as f64 * RANK as f64,
            Box::new(move |par: &ParConfig, kind: KernelKind| {
                black_box(mttkrp_dense_kernel(&fx.x4, &refs4, mode, par, kind).unwrap());
            }),
        ));
    }
    ops
}

fn bench_kernels(c: &mut Criterion) {
    let fx = fixtures();
    let mut cells = Vec::new();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(15);
    for (op, flops, run) in ops(&fx) {
        for threads in [1usize, 4] {
            let par = ParConfig::with_threads(threads);
            let mut ns = [0.0f64; 2];
            for (slot, kind) in [(0, KernelKind::Reference), (1, KernelKind::Tiled)] {
                let label = kind.label();
                let name = format!("{op}_{label}_t{threads}");
                group.bench_function(name.as_str(), |b| b.iter(|| run(&par, kind)));
                let iters = if op.starts_with("mttkrp") { 10 } else { 40 };
                ns[slot] = measure_ns(iters, || run(&par, kind));
                let gflops = flops / ns[slot];
                eprintln!(
                    "kernels/{name}: {:.0} ns/call, {gflops:.2} GFLOP/s",
                    ns[slot]
                );
                cells.push(Cell {
                    name,
                    fields: vec![("ns_per_call", ns[slot]), ("gflops", gflops)],
                });
            }
            let ratio = ns[0] / ns[1];
            eprintln!("kernels/{op}_ratio_t{threads}: {ratio:.2}x tiled over reference");
            cells.push(Cell {
                name: format!("{op}_ratio_t{threads}"),
                fields: vec![("tiled_over_reference", ratio)],
            });
        }
    }
    group.finish();
    cells.extend(bench_par_dispatch(c));
    write_artifact(&cells);
}

/// An `n × n` by `n × n` tiled product banded over `threads` workers: on
/// the pool, or on fresh scoped threads (the per-call spawn the pool
/// replaced). Neither applies [`ParConfig::for_work`].
fn banded_matmul(a: &[f64], b: &[f64], out: &mut [f64], n: usize, threads: usize, spawn: bool) {
    let kernel = KernelKind::Tiled.resolve();
    let chunk_rows = tile_rows_per_chunk(n, threads, kernel.row_tile());
    let band = |ci: usize, chunk: &mut [f64]| {
        let rows = chunk.len() / n;
        let a_band = &a[ci * chunk_rows * n..(ci * chunk_rows + rows) * n];
        kernel.matmul(a_band, rows, n, b, n, chunk);
    };
    if spawn {
        std::thread::scope(|scope| {
            for (ci, chunk) in out.chunks_mut(chunk_rows * n).enumerate() {
                scope.spawn(move || band(ci, chunk));
            }
        });
    } else {
        par_chunks_mut(&ParConfig::with_threads(threads), out, chunk_rows * n, band);
    }
}

fn bench_par_dispatch(c: &mut Criterion) -> Vec<Cell> {
    let mut cells = Vec::new();
    let mut group = c.benchmark_group("par_dispatch");
    group.sample_size(15);
    for threads in [2usize, 4] {
        let cfg = ParConfig::with_threads(threads);
        let mut slots = vec![0u8; threads];
        let name = format!("empty_region_t{threads}");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| par_chunks_mut(&cfg, black_box(&mut slots), 1, |_, _| {}))
        });
        let ns = measure_ns(2000, || {
            par_chunks_mut(&cfg, black_box(&mut slots), 1, |_, _| {})
        });
        eprintln!("par_dispatch/{name}: {ns:.0} ns/call");
        cells.push(Cell {
            name: format!("par_dispatch/{name}"),
            fields: vec![("ns_per_call", ns)],
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    for n in [32usize, 64, 128] {
        let a = random_factor(n, n, &mut rng);
        let b = random_factor(n, n, &mut rng);
        let mut out = vec![0.0f64; n * n];
        let iters = (1 << 26) / (n * n * n) as u32;
        let mut t1 = 0.0;
        for (threads, spawn) in [(1usize, false), (2, false), (2, true)] {
            let side = if spawn { "spawn" } else { "pool" };
            let name = format!("matmul{n}_{side}_t{threads}");
            let mut run = || banded_matmul(a.as_slice(), b.as_slice(), &mut out, n, threads, spawn);
            group.bench_function(name.as_str(), |bch| bch.iter(&mut run));
            let ns = measure_ns(iters, &mut run);
            let mut fields = vec![
                ("ns_per_call", ns),
                ("multiply_adds", (n * n * n) as f64),
                ("above_grain", f64::from(u8::from(n * n * n >= PAR_GRAIN))),
            ];
            if threads == 1 {
                t1 = ns;
            } else {
                fields.push(("speedup_vs_t1", t1 / ns));
            }
            eprintln!("par_dispatch/{name}: {ns:.0} ns/call");
            cells.push(Cell {
                name: format!("par_dispatch/{name}"),
                fields,
            });
        }
    }
    group.finish();
    cells
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
