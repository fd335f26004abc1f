//! Determinism and equivalence contract of the dimension-tree MTTKRP.
//!
//! Two distinct claims, pinned separately (`docs/dimtree.md`):
//!
//! 1. **Bitwise determinism of the tree itself**: for a fixed
//!    configuration, the dimtree path is bitwise run-to-run stable and
//!    bitwise thread-count stable, at both kernel backends — one
//!    accumulator per node element, reduction index ascending, parallelism
//!    banding output rows only.
//! 2. **Tolerance-bounded agreement with the per-mode path**: the tree
//!    associates the same contraction differently (it sums over factor
//!    *groups* instead of one fused Khatri-Rao sweep), so exact bitwise
//!    identity with `mttkrp_dense_kernel` is impossible — but every MTTKRP,
//!    every ALS factor and the whole fit trace must agree within a small
//!    relative tolerance, and the iteration counts must match.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::{cp_als_dense, mttkrp_dense_kernel, AlsOptions, DimTree, KernelKind};
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_tensor::DenseTensor;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];
const KINDS: [KernelKind; 2] = [KernelKind::Reference, KernelKind::Tiled];

/// Relative tolerance for tree-vs-per-mode agreement of a single MTTKRP.
/// Both paths sum the same ≤ ~17⁵·32 products in different orders; the
/// error of either against the exact sum is bounded by `n·ε·Σ|terms|`,
/// and these dims keep that far below 1e-10 of the result norm.
const MTTKRP_RTOL: f64 = 1e-10;

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn rand_tensor_and_factors(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let t = tpcp_tensor::random_dense(dims, &mut rng);
    let factors = dims
        .iter()
        .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
        .collect();
    (t, factors)
}

/// One full sweep over `dims` at rank `f`: pins (a) bitwise run-to-run and
/// thread-count stability of the tree at both backends and (b) relative
/// agreement with the per-mode path on every mode.
fn check_sweep(dims: &[usize], f: usize, seed: u64) {
    let (t, factors) = rand_tensor_and_factors(dims, f, seed);
    let refs: Vec<&Mat> = factors.iter().collect();
    for kind in KINDS {
        let mut baseline: Option<Vec<Vec<u64>>> = None;
        for threads in THREAD_BUDGETS {
            let par = ParConfig::with_threads(threads);
            // Two runs from fresh trees: run-to-run stability.
            let run = || -> Vec<Mat> {
                let mut tree = DimTree::new(dims, f).expect("order >= 3");
                (0..dims.len())
                    .map(|mode| tree.mttkrp(&t, &refs, mode, &par, kind).unwrap())
                    .collect()
            };
            let (first, second) = (run(), run());
            let first_bits: Vec<Vec<u64>> = first.iter().map(bits).collect();
            prop_assert_eq!(
                &first_bits,
                &second.iter().map(bits).collect::<Vec<_>>(),
                "run-to-run instability: dims {:?} rank {} {} t{}",
                dims,
                f,
                kind.label(),
                threads
            );
            // Thread-count stability against the 1-thread baseline.
            match &baseline {
                None => baseline = Some(first_bits),
                Some(b) => prop_assert_eq!(
                    b,
                    &first_bits,
                    "thread-count instability: dims {:?} rank {} {} t{}",
                    dims,
                    f,
                    kind.label(),
                    threads
                ),
            }
            // Tolerance-bounded agreement with the per-mode path.
            for (mode, fast) in first.iter().enumerate() {
                let slow = mttkrp_dense_kernel(&t, &refs, mode, &par, kind).unwrap();
                let scale = slow.fro_norm().max(1.0);
                let diff = fast.max_abs_diff(&slow).unwrap() / scale;
                prop_assert!(
                    diff < MTTKRP_RTOL,
                    "dims {:?} mode {} rank {} {} t{}: rel diff {:e}",
                    dims,
                    mode,
                    f,
                    kind.label(),
                    threads,
                    diff
                );
            }
        }
    }
}

/// The proptest shapes stay below the fan-out grain; these two run the
/// root contractions (tensor elements × rank ≥ `tpcp_par::PAR_GRAIN`) on
/// the pool at orders 3 and 4.
#[test]
fn dimtree_fans_out_above_the_grain() {
    for dims in [&[24usize, 23, 22][..], &[12, 11, 10, 9]] {
        assert!(dims.iter().product::<usize>() * 24 >= tpcp_par::PAR_GRAIN);
        check_sweep(dims, 24, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Order-3 ragged shapes across the rank range: the smallest tree
    /// (three leaves, one internal node) with singleton-sibling weights.
    #[test]
    fn dimtree_order3(
        d0 in 3usize..12, d1 in 3usize..12, d2 in 3usize..12,
        f in 1usize..33, seed in 0u64..1000,
    ) {
        check_sweep(&[d0, d1, d2], f, seed);
    }

    /// Order-4 ragged shapes: the balanced tree where both root children
    /// carry two-mode Khatri-Rao sibling weights.
    #[test]
    fn dimtree_order4(
        d0 in 2usize..9, d1 in 2usize..9, d2 in 2usize..9, d3 in 2usize..9,
        f in 1usize..17, seed in 0u64..1000,
    ) {
        check_sweep(&[d0, d1, d2, d3], f, seed);
    }

    /// Order-5 ragged shapes: an unbalanced split (2|3) exercising
    /// different left/right subtree depths and both non-root contraction
    /// kinds below one parent.
    #[test]
    fn dimtree_order5(
        d0 in 2usize..6, d1 in 2usize..6, d2 in 2usize..6,
        d3 in 2usize..6, d4 in 2usize..6,
        f in 1usize..9, seed in 0u64..1000,
    ) {
        check_sweep(&[d0, d1, d2, d3, d4], f, seed);
    }

    /// Full ALS equivalence: with `dimtree` on, iteration counts match the
    /// per-mode path exactly and factors/fit-trace agree within tolerance
    /// — at both kernel backends.
    #[test]
    fn dimtree_als_tracks_per_mode(
        d0 in 4usize..8, d1 in 4usize..8, d2 in 4usize..8, d3 in 3usize..6,
        seed in 0u64..1000,
    ) {
        let dims = [d0, d1, d2, d3];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = tpcp_tensor::random_dense(&dims, &mut rng);
        for kind in KINDS {
            let base = AlsOptions {
                rank: 3,
                max_iters: 12,
                tol: 0.0,
                seed,
                kernel: kind,
                ..Default::default()
            };
            let slow = cp_als_dense(&t, &AlsOptions { dimtree: false, ..base.clone() }).unwrap();
            let fast = cp_als_dense(&t, &AlsOptions { dimtree: true, ..base }).unwrap();
            prop_assert_eq!(slow.iterations, fast.iterations);
            for (i, (a, b)) in slow.fit_trace.iter().zip(&fast.fit_trace).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-8,
                    "{} iter {}: fit {} vs {}", kind.label(), i, a, b
                );
            }
            for (h, (fa, fb)) in slow
                .model
                .factors
                .iter()
                .zip(&fast.model.factors)
                .enumerate()
            {
                let scale = fa.fro_norm().max(1.0);
                let diff = fa.max_abs_diff(fb).unwrap() / scale;
                prop_assert!(diff < 1e-6, "{} factor {}: rel diff {:e}", kind.label(), h, diff);
            }
        }
    }
}

/// The ALS driver with `dimtree` on is itself bitwise run-to-run and
/// thread-count stable (the tree's determinism contract survives the full
/// sweep loop, Gram caching and rebalancing included).
#[test]
fn dimtree_als_is_bitwise_reproducible_across_threads() {
    let dims = [7usize, 6, 5, 4];
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let t = tpcp_tensor::random_dense(&dims, &mut rng);
    for kind in KINDS {
        let mut baseline: Option<Vec<f64>> = None;
        for threads in THREAD_BUDGETS {
            let opts = AlsOptions {
                rank: 4,
                max_iters: 8,
                tol: 0.0,
                kernel: kind,
                dimtree: true,
                par: ParConfig::with_threads(threads),
                ..Default::default()
            };
            let a = cp_als_dense(&t, &opts).unwrap();
            let b = cp_als_dense(&t, &opts).unwrap();
            assert_eq!(a.fit_trace, b.fit_trace, "{} t{}", kind.label(), threads);
            match &baseline {
                None => baseline = Some(a.fit_trace),
                Some(base) => {
                    assert_eq!(base, &a.fit_trace, "{} t{}", kind.label(), threads)
                }
            }
        }
    }
}
