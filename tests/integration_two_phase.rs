//! Cross-crate integration tests of the full two-phase pipeline.

use tpcp_datasets::{ensemble_like, low_rank_dense, ModelBlockSource};
use tpcp_partition::{split_dense, Grid};
use tpcp_schedule::ScheduleKind;
use tpcp_storage::PolicyKind;
use twopcp::{accuracy, Phase1Options, TwoPcp, TwoPcpConfig};

/// 2PCP must be competitive with direct (unpartitioned) CP-ALS on
/// recoverable low-rank data — the block decomposition and stitching
/// should not lose the structure.
#[test]
fn two_phase_matches_direct_als_fit() {
    let x = low_rank_dense(&[16, 16, 16], 3, 0.01, 5);

    let direct = tpcp_cp::cp_als_dense(
        &x,
        &tpcp_cp::AlsOptions::builder()
            .rank(3)
            .max_iters(60)
            .tol(1e-6)
            .build()
            .unwrap(),
    )
    .unwrap();

    let outcome = TwoPcp::new(
        TwoPcpConfig::new(3)
            .parts(vec![2])
            .max_virtual_iters(80)
            .tol(1e-6),
    )
    .decompose_dense(&x)
    .unwrap();

    assert!(direct.final_fit > 0.99, "direct fit {}", direct.final_fit);
    assert!(
        outcome.fit > direct.final_fit - 0.03,
        "2PCP fit {} vs direct {}",
        outcome.fit,
        direct.final_fit
    );
}

/// The storage backend must be transparent: disk-backed and in-memory
/// stores produce bit-identical results and identical swap sequences.
#[test]
fn disk_and_memory_stores_agree_bitwise() {
    let x = ensemble_like(&[12, 12, 12], 2, 0.05, 9);
    let base = TwoPcpConfig::new(2)
        .parts(vec![2])
        .schedule(ScheduleKind::HilbertOrder)
        .policy(PolicyKind::Forward)
        .buffer_fraction(0.5)
        .max_virtual_iters(12)
        .tol(0.0)
        .seed(4);

    let mem = TwoPcp::new(base.clone()).decompose_dense(&x).unwrap();

    let dir = std::env::temp_dir().join(format!("tpcp_it_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = TwoPcp::new(base.work_dir(&dir))
        .decompose_dense(&x)
        .unwrap();

    assert_eq!(mem.fit, disk.fit);
    assert_eq!(mem.model.weights, disk.model.weights);
    for (a, b) in mem.model.factors.iter().zip(&disk.model.factors) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    assert_eq!(
        mem.phase2.swaps_per_iteration,
        disk.phase2.swaps_per_iteration
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Phase 1 on the MapReduce substrate must agree with the threaded path
/// (same per-block seeds ⇒ same block decompositions).
#[test]
fn mapreduce_phase1_agrees_with_threads() {
    let x = low_rank_dense(&[10, 10, 10], 2, 0.0, 13);
    let dir = std::env::temp_dir().join(format!("tpcp_it_mr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let base = TwoPcpConfig::new(2)
        .parts(vec![2])
        .max_virtual_iters(20)
        .tol(1e-6)
        .seed(2);

    let threaded = TwoPcp::new(base.clone()).decompose_dense(&x).unwrap();
    let mr = TwoPcp::new(
        base.work_dir(&dir)
            .phase1(Phase1Options::default().mapreduce(true)),
    )
    .decompose_dense(&x)
    .unwrap();

    assert!(
        mr.mr_counters.map_input_records > 0,
        "MR path not exercised"
    );
    assert_eq!(threaded.phase1.block_norms_sq, mr.phase1.block_norms_sq);
    assert!(
        (threaded.fit - mr.fit).abs() < 1e-9,
        "threaded {} vs mapreduce {}",
        threaded.fit,
        mr.fit
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Blockwise streaming accuracy must equal the global computation.
#[test]
fn blockwise_accuracy_matches_global() {
    let x = low_rank_dense(&[12, 9, 6], 2, 0.1, 21);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![3, 3, 2])
            .max_virtual_iters(30)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();

    let grid = Grid::new(x.dims(), &[3, 3, 2]);
    let blocks = split_dense(&x, &grid);
    let blockwise = accuracy::blockwise_fit_dense(&outcome.model, &grid, &blocks).unwrap();
    assert!(
        (outcome.fit - blockwise).abs() < 1e-6,
        "global {} vs blockwise {blockwise}",
        outcome.fit
    );
}

/// Uneven partition sizes (dims not divisible by the grid) must work end
/// to end.
#[test]
fn uneven_partitions_work() {
    let x = low_rank_dense(&[13, 11, 7], 2, 0.05, 8);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![3, 2, 2])
            .max_virtual_iters(40)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();
    assert!(outcome.fit > 0.9, "fit {}", outcome.fit);
    assert_eq!(outcome.model.dims(), vec![13, 11, 7]);
}

/// Four-mode tensors exercise the generic (non-3-mode) code paths.
#[test]
fn four_mode_tensor_end_to_end() {
    let x = low_rank_dense(&[6, 6, 6, 6], 2, 0.02, 3);
    let outcome = TwoPcp::new(
        TwoPcpConfig::new(2)
            .parts(vec![2])
            .schedule(ScheduleKind::ZOrder)
            .max_virtual_iters(40)
            .tol(1e-5),
    )
    .decompose_dense(&x)
    .unwrap();
    assert!(outcome.fit > 0.9, "fit {}", outcome.fit);
}

/// Everything a run must reproduce bit for bit at any thread budget:
/// factors and weights, the exact fit, the Phase-2 fit trace and the swap
/// counts.
type RunBits = (Vec<Vec<u64>>, u64, Vec<u64>, Vec<u64>);

fn run_bits(outcome: &twopcp::TwoPcpOutcome) -> RunBits {
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let mut arrays = vec![to_bits(&outcome.model.weights)];
    arrays.extend(outcome.model.factors.iter().map(|f| to_bits(f.as_slice())));
    (
        arrays,
        outcome.fit.to_bits(),
        to_bits(&outcome.phase2.fit_trace),
        outcome.phase2.swaps_per_iteration.clone(),
    )
}

/// Whole-pipeline thread invariance on both sides of the fan-out grain:
/// in-memory and streamed runs at budgets {1, 2, 4, 7} (7 exceeds most
/// hosts) give the bits of the 1-thread run. Phase 1 fans out over blocks
/// with each block's kernels inline; Phase 2 fans out per product only
/// above `tpcp_par::PAR_GRAIN` multiply-adds.
#[test]
fn pipeline_is_thread_invariant_across_the_grain() {
    use tpcp_par::PAR_GRAIN;
    // 4×4×4 grid of 8³ blocks at rank 8: every Phase-2 product
    // (8 rows × 8 × 8) stays below the grain.
    let fine = ([32usize, 32, 32], 8usize, 4usize);
    // 2×2×2 grid at rank 64: the 64-row slabs of modes 0 and 1 make
    // Phase-2 products of 64 × 64 × 64 multiply-adds, at the grain (which
    // fans out).
    let coarse = ([128usize, 128, 2], 64usize, 2usize);
    const { assert!(8 * 8 * 8 < PAR_GRAIN && 64 * 64 * 64 >= PAR_GRAIN) };

    for (dims, rank, parts) in [fine, coarse] {
        let cfg = |threads: usize| {
            TwoPcpConfig::new(rank)
                .parts(vec![parts])
                .phase1(Phase1Options::default().max_iters(2))
                .max_virtual_iters(2)
                .tol(0.0)
                .seed(11)
                .threads(threads)
        };
        let x = low_rank_dense(&dims, rank, 0.05, 17);
        let run = |threads: usize| -> [RunBits; 2] {
            let dense = TwoPcp::new(cfg(threads)).decompose_dense(&x).unwrap();
            let mut src = ModelBlockSource::low_rank(&dims, rank, 17);
            let streamed = TwoPcp::new(cfg(threads))
                .decompose_source(&mut src)
                .unwrap();
            [run_bits(&dense), run_bits(&streamed)]
        };
        let reference = run(1);
        assert!(
            reference[0].1 != 0.0f64.to_bits(),
            "dims {dims:?}: zero fit"
        );
        for threads in [2usize, 4, 7] {
            assert!(
                run(threads) == reference,
                "dims {dims:?} rank {rank}: threads {threads} diverge from 1"
            );
        }
    }
}
