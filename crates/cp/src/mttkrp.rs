//! MTTKRP: matricised tensor times Khatri-Rao product.
//!
//! `M = X_(n) · KR([A⁽ʰ⁾]_{h≠n})` is the dominant kernel of CP-ALS.
//!
//! * The dense path runs every order through one fused 3-way kernel. An
//!   order-N tensor is *viewed* as 3-way on its own row-major buffer (no
//!   copy): the modes before and after the target are folded into single
//!   extents, and only their small Khatri-Rao blocks are materialised (see
//!   [`mttkrp_dense_kernel`] and `docs/kernels.md`, "Order-N fold"). The
//!   3-way kernel streams contiguous fibres through the backend's
//!   [`Kernel::mttkrp_tile`]/[`Kernel::mttkrp_scatter`] ops (`O(|X|·F)`
//!   flops, `O(F)` scratch per worker).
//! * The sparse path accumulates one scaled Hadamard row product per
//!   non-zero.
//!
//! Both paths are parallel on the shared [`tpcp_par`] budget and
//! **deterministic**: the dense kernel blocks over the *output* mode (each
//! output row is accumulated by exactly one worker, in serial order), while
//! the sparse path reduces per-chunk accumulators over a chunking that
//! depends only on `nnz`, merged in ascending chunk order. Results are
//! therefore bit-identical for any thread count.

use std::borrow::Cow;
use std::ops::Range;

use crate::{CpError, Result};
use tpcp_linalg::{khatri_rao, Kernel, KernelKind, Mat};
use tpcp_par::{fixed_chunk_size, par_chunks_mut_scratch, par_chunks_reduce_scratch, ParConfig};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// Reduction chunking for the sparse path: at least this many non-zeros
/// per chunk…
const REDUCE_MIN_CHUNK: usize = 512;

/// …and at most this many chunks, bounding accumulator allocations and the
/// ordered-merge cost. Both constants are part of the determinism contract:
/// chunk boundaries must depend only on the input size.
const REDUCE_MAX_CHUNKS: usize = 64;

pub(crate) fn check_factors(dims: &[usize], factors: &[&Mat], mode: usize) -> Result<usize> {
    if factors.len() != dims.len() {
        return Err(CpError::BadFactors {
            reason: format!("{} factors for order-{} tensor", factors.len(), dims.len()),
        });
    }
    if mode >= dims.len() {
        return Err(CpError::Tensor(tpcp_tensor::TensorError::InvalidMode {
            mode,
            order: dims.len(),
        }));
    }
    let f = factors.first().map_or(0, |m| m.cols());
    for (h, m) in factors.iter().enumerate() {
        if m.cols() != f {
            return Err(CpError::BadFactors {
                reason: format!("factor {h} rank {} != {f}", m.cols()),
            });
        }
        if h != mode && m.rows() != dims[h] {
            return Err(CpError::BadFactors {
                reason: format!("factor {h} rows {} != dim {}", m.rows(), dims[h]),
            });
        }
    }
    Ok(f)
}

/// Dense MTTKRP for mode `mode`: returns the `I_mode × F` matrix
/// `X_(mode) · KR([factors]_{h≠mode})`, computed on the hardware thread
/// budget ([`ParConfig::auto`]); see [`mttkrp_dense_par`].
///
/// `factors[mode]` is ignored (only its column count participates in
/// validation), matching ALS usage where that factor is the one being
/// solved for.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense(x: &DenseTensor, factors: &[&Mat], mode: usize) -> Result<Mat> {
    mttkrp_dense_par(x, factors, mode, &ParConfig::auto())
}

/// [`mttkrp_dense`] on an explicit thread budget.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense_par(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
) -> Result<Mat> {
    mttkrp_dense_kernel(x, factors, mode, par, KernelKind::Auto)
}

/// [`mttkrp_dense`] on an explicit thread budget and kernel backend.
///
/// Every order runs through the fused 3-way kernel, whose per-fibre
/// [`Kernel::mttkrp_tile`]/[`Kernel::mttkrp_scatter`] ops the backend
/// supplies. The order-`N` tensor is viewed as 3-way `[L, M, R]` on its own
/// buffer, with `KR(·)` the row-major Khatri-Rao product of a mode range:
///
/// * mode 0 → `[I₀, I₁, ∏_{h≥2} I_h]` on the 3-way mode-0 path, with
///   `C = KR(A₂…)`;
/// * last mode → `[∏_{h<N−2} I_h, I_{N−2}, I_{N−1}]` on the mode-2 path,
///   with `A = KR(A₀…A_{N−3})`;
/// * middle mode `n` → `[∏_{h<n} I_h, I_n, ∏_{h>n} I_h]` on the mode-1
///   path, with `A = KR(left)` and `C = KR(right)`.
///
/// A single-factor range is used in place and an empty one is a unit
/// extent with a ones row (orders 1 and 2), so order 3 runs on the
/// factors directly. All backends are bit-identical (see
/// `tpcp_linalg::kernel`), so this knob trades speed only.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense_kernel(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
    kind: KernelKind,
) -> Result<Mat> {
    let f = check_factors(x.dims(), factors, mode)?;
    let dims = x.dims();
    if f == 0 || x.is_empty() {
        return Ok(Mat::zeros(dims[mode], f));
    }
    let par = par.for_work(x.len() * f);
    let order = dims.len();
    let ones = Mat::filled(1, f, 1.0);
    let kr = |modes: Range<usize>| kr_block(&factors[modes], &ones);
    let extent = |modes: Range<usize>| dims[modes].iter().product::<usize>();
    let own = factors[mode];
    let (view, view_mode, a, b, c) = if mode == 0 {
        let split = order.min(2);
        let (b, c) = (kr(1..split), kr(split..order));
        let view = [dims[0], extent(1..split), extent(split..order)];
        (view, 0, Cow::Borrowed(own), b, c)
    } else if mode == order - 1 {
        let (a, b) = (kr(0..order - 2), kr(order - 2..order - 1));
        let view = [extent(0..order - 2), dims[order - 2], dims[order - 1]];
        (view, 2, a, b, Cow::Borrowed(own))
    } else {
        let (a, c) = (kr(0..mode), kr(mode + 1..order));
        let view = [extent(0..mode), dims[mode], extent(mode + 1..order)];
        (view, 1, a, Cow::Borrowed(own), c)
    };
    Ok(mttkrp_dense3(
        x.as_slice(),
        view,
        [&*a, &*b, &*c],
        view_mode,
        f,
        &par,
        kind.resolve(),
    ))
}

/// `KR(factors)` for the order-N fold: a single factor is used in place
/// and an empty range is the unit extent's ones row.
fn kr_block<'a>(factors: &[&'a Mat], ones: &'a Mat) -> Cow<'a, Mat> {
    match factors {
        [] => Cow::Borrowed(ones),
        [one] => Cow::Borrowed(*one),
        many => Cow::Owned(khatri_rao(many).expect("factor ranks validated")),
    }
}

/// The fused 3-way kernel over a row-major `[d0, d1, d2]` buffer: iterate
/// `(i, j)` pairs, treating the contiguous mode-2 fibre `X[i, j, :]` as a
/// vector. `factors[mode]` is not read, and the view must be non-empty
/// with `f > 0`. Parallelism blocks the *output* mode: each worker owns a
/// band of output rows and accumulates them in the same order as the
/// serial sweep, so results are bit-identical for any thread count.
fn mttkrp_dense3(
    data: &[f64],
    [di, dj, dk]: [usize; 3],
    factors: [&Mat; 3],
    mode: usize,
    f: usize,
    par: &ParConfig,
    kernel: &dyn Kernel,
) -> Mat {
    let rows = [di, dj, dk][mode];
    let mut out = Mat::zeros(rows, f);
    let chunk_rows = rows.div_ceil(par.threads().min(rows));
    match mode {
        0 => {
            // M[i] += (X[i,j,:] · C) ⊛ B[j]
            let c = factors[2].as_slice();
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let i0 = chunk_idx * chunk_rows;
                    for (local, out_row) in chunk.chunks_mut(f).enumerate() {
                        let i = i0 + local;
                        for j in 0..dj {
                            let fibre = &data[(i * dj + j) * dk..(i * dj + j + 1) * dk];
                            let b_row = factors[1].row(j);
                            kernel.mttkrp_tile(fibre, c, f, b_row, out_row, scratch);
                        }
                    }
                },
            );
        }
        1 => {
            // M[j] += (X[i,j,:] · C) ⊛ A[i]; each worker owns a j-band and
            // sweeps i in ascending order (the serial accumulation order).
            let c = factors[2].as_slice();
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let j0 = chunk_idx * chunk_rows;
                    let band = chunk.len() / f;
                    for i in 0..di {
                        let a_row = factors[0].row(i);
                        for local in 0..band {
                            let j = j0 + local;
                            let fibre = &data[(i * dj + j) * dk..(i * dj + j + 1) * dk];
                            let out_row = &mut chunk[local * f..(local + 1) * f];
                            kernel.mttkrp_tile(fibre, c, f, a_row, out_row, scratch);
                        }
                    }
                },
            );
        }
        _ => {
            // M[k] += X[i,j,k] · (A[i] ⊛ B[j]); each worker owns a k-band
            // and reads only its slice of every fibre, sweeping (i, j) in
            // ascending order (the serial accumulation order).
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let k0 = chunk_idx * chunk_rows;
                    let band = chunk.len() / f;
                    for i in 0..di {
                        let a_row = factors[0].row(i);
                        for j in 0..dj {
                            let b_row = factors[1].row(j);
                            for ((s, &a), &b) in scratch.iter_mut().zip(a_row).zip(b_row) {
                                *s = a * b;
                            }
                            let base = (i * dj + j) * dk + k0;
                            let fibre = &data[base..base + band];
                            kernel.mttkrp_scatter(fibre, scratch, f, chunk);
                        }
                    }
                },
            );
        }
    }
    out
}

/// Sparse (COO) MTTKRP for mode `mode`, computed on the hardware thread
/// budget ([`ParConfig::auto`]); see [`mttkrp_sparse_par`].
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_sparse(x: &SparseTensor, factors: &[&Mat], mode: usize) -> Result<Mat> {
    mttkrp_sparse_par(x, factors, mode, &ParConfig::auto())
}

/// [`mttkrp_sparse`] on an explicit thread budget: the non-zeros are cut
/// into fixed chunks (boundaries depend only on `nnz`), each chunk fills a
/// private accumulator, and the accumulators merge in ascending chunk
/// order — deterministic for any thread count.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
#[allow(clippy::needless_range_loop)]
pub fn mttkrp_sparse_par(
    x: &SparseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
) -> Result<Mat> {
    let f = check_factors(x.dims(), factors, mode)?;
    let nnz = x.nnz();
    let rows = x.dims()[mode];
    if nnz == 0 {
        return Ok(Mat::zeros(rows, f));
    }
    let order = x.order();
    let values = x.values();
    let par = par.for_work(nnz * f * order);
    let chunk = fixed_chunk_size(nnz, REDUCE_MIN_CHUNK, REDUCE_MAX_CHUNKS);
    Ok(par_chunks_reduce_scratch(
        &par,
        nnz,
        chunk,
        || Mat::zeros(rows, f),
        || vec![0.0f64; f],
        |range, acc, prod| {
            for e in range {
                prod.fill(values[e]);
                for h in 0..order {
                    if h == mode {
                        continue;
                    }
                    let row = factors[h].row(x.mode_coords(h)[e] as usize);
                    for (p, &a) in prod.iter_mut().zip(row) {
                        *p *= a;
                    }
                }
                let target = x.mode_coords(mode)[e] as usize;
                let out_row = acc.row_mut(target);
                for (o, &p) in out_row.iter_mut().zip(prod.iter()) {
                    *o += p;
                }
            }
        },
        |mut a, b| {
            a.add_assign(&b).expect("accumulator shapes agree");
            a
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_linalg::khatri_rao;

    fn reference_mttkrp(x: &DenseTensor, factors: &[&Mat], mode: usize) -> Mat {
        // Materialised definition: unfold · KR.
        let others: Vec<&Mat> = (0..factors.len())
            .filter(|&h| h != mode)
            .map(|h| factors[h])
            .collect();
        let kr = khatri_rao(&others).unwrap();
        x.unfold(mode).unwrap().matmul(&kr).unwrap()
    }

    fn rand_tensor_and_factors(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = tpcp_tensor::random_dense(dims, &mut rng);
        let factors = dims
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
            .collect();
        (t, factors)
    }

    #[test]
    fn dense3_matches_reference_all_modes() {
        let (t, factors) = rand_tensor_and_factors(&[4, 5, 3], 2, 11);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..3 {
            let fast = mttkrp_dense(&t, &refs, mode).unwrap();
            let slow = reference_mttkrp(&t, &refs, mode);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-10,
                "mode {mode} diverges"
            );
        }
    }

    #[test]
    fn dense_fold_matches_reference_orders_4_and_5() {
        for (dims, seed) in [(&[3usize, 2, 4, 2][..], 5u64), (&[2, 3, 2, 3, 2][..], 6)] {
            let (t, factors) = rand_tensor_and_factors(dims, 3, seed);
            let refs: Vec<&Mat> = factors.iter().collect();
            for mode in 0..dims.len() {
                let fast = mttkrp_dense(&t, &refs, mode).unwrap();
                let slow = reference_mttkrp(&t, &refs, mode);
                assert!(
                    fast.max_abs_diff(&slow).unwrap() < 1e-10,
                    "dims {dims:?} mode {mode} diverges"
                );
            }
        }
    }

    #[test]
    fn dense_order1_is_the_vector_in_every_column() {
        // An order-1 MTTKRP has an empty Khatri-Rao product: M[i, s] = x[i].
        let (t, factors) = rand_tensor_and_factors(&[6], 3, 9);
        let refs: Vec<&Mat> = factors.iter().collect();
        let fast = mttkrp_dense(&t, &refs, 0).unwrap();
        assert_eq!(fast.shape(), (6, 3));
        for (i, &v) in t.as_slice().iter().enumerate() {
            assert!(fast.row(i).iter().all(|&m| m == v), "row {i}");
        }
    }

    #[test]
    fn dense_order2_matches_reference_both_modes() {
        // For a matrix, MTTKRP over mode 0 is X · B and over mode 1 is Xᵀ · A.
        let (t, factors) = rand_tensor_and_factors(&[4, 3], 2, 7);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..2 {
            let fast = mttkrp_dense(&t, &refs, mode).unwrap();
            let slow = reference_mttkrp(&t, &refs, mode);
            assert!(fast.max_abs_diff(&slow).unwrap() < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn dense_zero_extent_mode_gives_zero_rows() {
        // An empty tensor contributes nothing; the output keeps the mode's
        // extent, whichever fold branch the mode would take.
        for dims in [
            &[3usize, 0, 4, 2][..],
            &[0, 3, 2][..],
            &[2, 3, 0][..],
            &[0][..],
        ] {
            let (t, factors) = rand_tensor_and_factors(dims, 2, 3);
            let refs: Vec<&Mat> = factors.iter().collect();
            for mode in 0..dims.len() {
                let out = mttkrp_dense(&t, &refs, mode).unwrap();
                assert_eq!(out.shape(), (dims[mode], 2), "dims {dims:?} mode {mode}");
                assert!(out.as_slice().iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn sparse_matches_dense() {
        let (t, factors) = rand_tensor_and_factors(&[5, 4, 3], 3, 13);
        // Zero half the cells to create genuine sparsity.
        let mut t = t;
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let sp = SparseTensor::from_dense(&t, 0.0);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..3 {
            let d = mttkrp_dense(&t, &refs, mode).unwrap();
            let s = mttkrp_sparse(&sp, &refs, mode).unwrap();
            assert!(d.max_abs_diff(&s).unwrap() < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn empty_sparse_gives_zero() {
        let sp = SparseTensor::empty(&[3, 3, 3]);
        let f = Mat::zeros(3, 2);
        let out = mttkrp_sparse(&sp, &[&f, &f, &f], 1).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_validation() {
        let t = DenseTensor::zeros(&[3, 3, 3]);
        let good = Mat::zeros(3, 2);
        let bad_rank = Mat::zeros(3, 4);
        let bad_rows = Mat::zeros(2, 2);
        assert!(mttkrp_dense(&t, &[&good, &good], 0).is_err());
        assert!(mttkrp_dense(&t, &[&good, &bad_rank, &good], 0).is_err());
        assert!(mttkrp_dense(&t, &[&good, &bad_rows, &good], 0).is_err());
        assert!(mttkrp_dense(&t, &[&good, &good, &good], 3).is_err());
        // The mode's own factor rows are NOT validated (it is replaced).
        assert!(mttkrp_dense(&t, &[&bad_rows, &good, &good], 0).is_ok());
    }
}
