//! Tiled == reference bitwise equivalence for the fused dense MTTKRP.
//!
//! The kernel backend seam routes the fused 3-way MTTKRP fibre loops
//! through `Kernel::mttkrp_tile` / `mttkrp_scatter`, and every other order
//! is folded onto that 3-way view; the tiled backend must reproduce the
//! reference backend **bit for bit** for every order, every mode, any
//! ragged dims, rank spanning 1..32, and any thread budget — the same
//! determinism contract `tpcp-linalg`'s `kernel_equiv` suite pins for the
//! matrix products.

use proptest::prelude::*;
use rand::SeedableRng;
use tpcp_cp::{mttkrp_dense_kernel, KernelKind};
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_tensor::DenseTensor;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 7];

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

/// Asserts that for every mode and thread budget the tiled backend equals
/// the serial reference backend bitwise.
fn check_tensor(t: &DenseTensor, factors: &[Mat]) {
    let refs: Vec<&Mat> = factors.iter().collect();
    for mode in 0..t.order() {
        let reference =
            mttkrp_dense_kernel(t, &refs, mode, &ParConfig::serial(), KernelKind::Reference)
                .unwrap();
        for threads in THREAD_BUDGETS {
            let par = ParConfig::with_threads(threads);
            let tiled = mttkrp_dense_kernel(t, &refs, mode, &par, KernelKind::Tiled).unwrap();
            prop_assert_eq!(
                bits(&tiled),
                bits(&reference),
                "dims {:?} mode {} rank {} threads {}: tiled != reference bitwise",
                t.dims(),
                mode,
                refs[0].cols(),
                threads
            );
        }
    }
}

fn check_modes(dims: &[usize], f: usize, seed: u64) {
    let (t, factors) = rand_tensor_and_factors(dims, f, seed);
    check_tensor(&t, &factors);
}

/// [`check_tensor`] on a random tensor with half its entries `0.0` and a
/// further tenth `-0.0`.
fn check_modes_zero_heavy(dims: &[usize], f: usize, seed: u64) {
    let (mut t, factors) = rand_tensor_and_factors(dims, f, seed);
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        if i % 2 == 0 {
            *v = 0.0;
        } else if i % 5 == 0 {
            *v = -0.0;
        }
    }
    check_tensor(&t, &factors);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Small ragged dims at low rank: exercises the scalar tails of the
    /// 8-wide tiled accumulators (rank < TILE_NR) on all three modes.
    #[test]
    fn tiled_mttkrp_matches_reference_small_ranks(
        d0 in 3usize..14, d1 in 3usize..14, d2 in 3usize..14,
        f in 1usize..8, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2], f, seed);
    }

    /// Work above the fan-out grain (`tpcp_par::PAR_GRAIN` = elements ×
    /// rank ≥ 2¹⁸) with ranks up to 32, so the fused kernel genuinely fans
    /// out and full 8-wide chunks plus ragged rank tails are both hit.
    #[test]
    fn tiled_mttkrp_matches_reference_parallel(
        d0 in 24usize..29, d1 in 24usize..29, d2 in 24usize..29,
        f in 19usize..33, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2], f, seed);
    }

    /// Order 2 folds to `[I₀, I₁, 1]` (mode 0) and `[1, I₀, I₁]` (mode 1)
    /// with a ones-row Khatri-Rao block.
    #[test]
    fn tiled_mttkrp_matches_reference_order2(
        d0 in 2usize..60, d1 in 2usize..60, f in 1usize..33, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1], f, seed);
    }

    /// Order 4 hits all three fold branches with a two-factor Khatri-Rao
    /// block on the folded side.
    #[test]
    fn tiled_mttkrp_matches_reference_order4(
        d0 in 2usize..10, d1 in 2usize..10, d2 in 2usize..10, d3 in 2usize..10,
        f in 1usize..33, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2, d3], f, seed);
    }

    /// Order 5: the middle mode folds two factors on each side.
    #[test]
    fn tiled_mttkrp_matches_reference_order5(
        d0 in 2usize..7, d1 in 2usize..7, d2 in 2usize..7, d3 in 2usize..7, d4 in 2usize..7,
        f in 1usize..33, seed in 0u64..1000,
    ) {
        check_modes(&[d0, d1, d2, d3, d4], f, seed);
    }
}

/// Zero-heavy tensors: the reference fibre loops skip zero entries while
/// the tiled loops are branch-free; ±0.0 products must leave the
/// accumulators bitwise unchanged for finite inputs.
#[test]
fn tiled_mttkrp_matches_reference_with_zeros() {
    check_modes_zero_heavy(&[13, 11, 9], 16, 42);
}

/// The same ±0.0 argument through the order-4 fold, whose Khatri-Rao
/// blocks multiply the zero entries by products of factor rows.
#[test]
fn tiled_mttkrp_matches_reference_with_zeros_order4() {
    check_modes_zero_heavy(&[7, 6, 5, 4], 12, 43);
}

/// `Auto` (which runs the tiled backend) must agree bitwise with the
/// reference backend.
#[test]
fn auto_kind_matches_explicit_backends() {
    let dims = [8usize, 7, 6];
    let (t, factors) = rand_tensor_and_factors(&dims, 5, 7);
    let refs: Vec<&Mat> = factors.iter().collect();
    let par = ParConfig::serial();
    for mode in 0..3 {
        let auto = mttkrp_dense_kernel(&t, &refs, mode, &par, KernelKind::Auto).unwrap();
        let reference = mttkrp_dense_kernel(&t, &refs, mode, &par, KernelKind::Reference).unwrap();
        assert_eq!(bits(&auto), bits(&reference), "mode {mode}");
    }
}
