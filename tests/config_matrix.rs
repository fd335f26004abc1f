//! The configuration matrix: every knob that binaries may set through a
//! `TPCP_*` variable, walked in-process on one small out-of-core fixture
//! and checked against its documented contract.
//!
//! * threads, prefetch, shards, mmap and kernel move work or bytes, never
//!   values: each alone, and all five flipped together, reproduce the
//!   default run bit for bit (factors, weights, fit, fit trace, Phase-1
//!   block fits and swap counts);
//! * dimtree and compress change the arithmetic: each is bitwise
//!   repeatable and bitwise equal across thread budgets {1, 4} and both
//!   kernels within its own path, and its fit agrees with the default
//!   path within the tolerance `docs/dimtree.md` / `docs/compress.md`
//!   state;
//! * `TwoPcpConfig::new` keeps its defaults, field by field.
//!
//! Every run streams the fixture through `decompose_source` into an
//! on-disk unit store with half the working set buffered, so the storage
//! knobs act on real page traffic.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tpcp_cp::AlsOptions;
use tpcp_datasets::low_rank_dense;
use tpcp_par::ParConfig;
use tpcp_partition::DenseMemorySource;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{PolicyKind, PrefetchConfig};
use tpcp_tensor::DenseTensor;
use twopcp::{
    CompressOptions, InitKind, KernelKind, Phase1Options, TwoPcp, TwoPcpConfig, TwoPcpOutcome,
};

const DIMS: [usize; 3] = [12, 12, 12];
const RANK: usize = 2;

fn fixture() -> DenseTensor {
    low_rank_dense(&DIMS, RANK, 0.0, 29)
}

/// A fresh, unique work directory removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tpcp_config_matrix_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The default path: `TwoPcpConfig::new` plus the fixture's shape.
fn base() -> TwoPcpConfig {
    TwoPcpConfig::new(RANK)
        .parts(vec![2])
        .buffer_fraction(0.5)
        .max_virtual_iters(12)
        .tol(0.0)
        .seed(5)
}

fn run(x: &DenseTensor, cfg: TwoPcpConfig) -> TwoPcpOutcome {
    let dir = WorkDir::new();
    let mut src = DenseMemorySource::new(x);
    TwoPcp::new(cfg.work_dir(&dir.0))
        .decompose_source(&mut src)
        .unwrap()
}

/// Everything a value-neutral knob must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct Bits {
    weights: Vec<u64>,
    factors: Vec<Vec<u64>>,
    fit: u64,
    fit_trace: Vec<u64>,
    block_fits: Vec<u64>,
    swaps_per_iteration: Vec<u64>,
}

fn bits(o: &TwoPcpOutcome) -> Bits {
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    Bits {
        weights: to_bits(&o.model.weights),
        factors: o
            .model
            .factors
            .iter()
            .map(|f| to_bits(f.as_slice()))
            .collect(),
        fit: o.fit.to_bits(),
        fit_trace: to_bits(&o.phase2.fit_trace),
        block_fits: to_bits(&o.phase1.block_fits),
        swaps_per_iteration: o.phase2.swaps_per_iteration.clone(),
    }
}

#[test]
fn value_neutral_knobs_reproduce_the_default_bitwise() {
    let x = fixture();
    let default = run(&x, base());
    assert!(default.fit > 0.8, "fixture fit {}", default.fit);
    assert!(
        default.phase2.io.fetches > 0 && default.phase2.io.prefetch_hits > 0,
        "the fixture must swap and prefetch: {:?}",
        default.phase2.io
    );
    let want = bits(&default);

    let mut variants: Vec<(String, TwoPcpConfig)> = Vec::new();
    for t in [1, 2, 4, 7] {
        variants.push((format!("threads {t}"), base().threads(t)));
    }
    for depth in [0, 4, 8] {
        variants.push((format!("prefetch {depth}"), base().prefetch_depth(depth)));
    }
    for s in [1, 3] {
        variants.push((format!("shards {s}"), base().shards(s)));
    }
    for m in [false, true] {
        variants.push((format!("mmap {m}"), base().mmap(m)));
    }
    for k in [KernelKind::Reference, KernelKind::Tiled] {
        variants.push((format!("kernel {}", k.label()), base().kernel(k)));
    }
    variants.push((
        "all five flipped".into(),
        base()
            .threads(7)
            .prefetch(PrefetchConfig::disabled())
            .shards(3)
            .mmap(true)
            .kernel(KernelKind::Reference),
    ));
    for (name, cfg) in variants {
        assert_eq!(bits(&run(&x, cfg)), want, "{name} changed the result");
    }
}

/// Runs `path` at threads {1, 4} × both kernels, checks the four runs and
/// a repeat are bitwise equal, and returns one of them.
fn own_path_is_deterministic(x: &DenseTensor, path: impl Fn() -> TwoPcpConfig) -> TwoPcpOutcome {
    let first = run(x, path());
    let want = bits(&first);
    assert_eq!(bits(&run(x, path())), want, "not repeatable");
    for threads in [1, 4] {
        for kernel in [KernelKind::Reference, KernelKind::Tiled] {
            assert_eq!(
                bits(&run(x, path().threads(threads).kernel(kernel))),
                want,
                "threads {threads}, kernel {}",
                kernel.label()
            );
        }
    }
    first
}

#[test]
fn dimtree_is_deterministic_and_tolerance_equivalent() {
    let x = fixture();
    let default = run(&x, base());
    let tree = own_path_is_deterministic(&x, || base().dimtree(true));
    // docs/dimtree.md: the tree re-associates each MTTKRP, so only fits
    // agree to tolerance (1e-8 for ALS), while iteration and swap counts,
    // which do not depend on the arithmetic, stay equal.
    assert!(
        (tree.fit - default.fit).abs() <= 1e-8 * default.fit.abs(),
        "dimtree fit {} vs default {}",
        tree.fit,
        default.fit
    );
    assert_eq!(
        tree.phase2.swaps_per_iteration,
        default.phase2.swaps_per_iteration
    );
    assert_eq!(
        tree.phase2.virtual_iterations,
        default.phase2.virtual_iterations
    );
}

#[test]
fn compress_is_deterministic_and_tolerance_equivalent() {
    let x = fixture();
    let default = run(&x, base());
    // The fixture is exactly rank 2, so multilinear rank 2 per mode: the
    // setting of the docs/compress.md fit contract (caps at the rank, a
    // few polish sweeps).
    let options = CompressOptions::builder()
        .mlrank(vec![RANK; DIMS.len()])
        .refine_iters(12)
        .build()
        .unwrap();
    let compressed = own_path_is_deterministic(&x, || {
        base().max_virtual_iters(60).compress(options.clone())
    });
    assert!(compressed.compress.is_some(), "the compressed path ran");
    // docs/compress.md: the compressed fit matches a converged exact fit
    // to 1e-6; the default path is no better than converged, so the
    // compressed fit may not fall below it by more than that.
    assert!(
        compressed.fit >= default.fit - 1e-6,
        "compressed fit {} vs default {}",
        compressed.fit,
        default.fit
    );
}

#[test]
fn defaults_are_unchanged() {
    let c = TwoPcpConfig::new(7);
    assert_eq!(c.rank, 7);
    assert_eq!(c.parts, vec![2]);
    assert_eq!(c.schedule, ScheduleKind::HilbertOrder);
    assert_eq!(c.policy, PolicyKind::Forward);
    assert_eq!(c.buffer_fraction, 1.0);
    assert_eq!(c.max_virtual_iters, 100);
    assert_eq!(c.tol, 1e-2);
    assert_eq!(c.ridge, 1e-9);
    assert_eq!(c.seed, 0);
    assert_eq!(c.work_dir, None);
    assert_eq!(c.init, InitKind::SlabMean);
    let Phase1Options {
        max_iters,
        tol,
        use_mapreduce,
    } = c.phase1;
    assert_eq!((max_iters, tol, use_mapreduce), (25, 1e-4, false));
    let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(c.par, ParConfig::auto());
    assert_eq!(c.par.threads(), hardware);
    assert_eq!(c.prefetch, PrefetchConfig::with_depth(4));
    assert!(c.prefetch.is_active());
    assert_eq!(c.shards, 1);
    assert!(!c.mmap);
    assert_eq!(c.kernel, KernelKind::Auto);
    assert_eq!(c.kernel.resolved(), KernelKind::Tiled);
    assert!(!c.dimtree);
    assert_eq!(c.compress, None);

    let als = AlsOptions::default();
    assert_eq!(als.par, ParConfig::auto());
    assert_eq!(als.kernel, KernelKind::Auto);
    assert!(!als.dimtree);
    assert_eq!(als.compress, None);
}
