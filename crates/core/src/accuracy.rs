//! Exact decomposition-accuracy evaluation (paper §III-B).
//!
//! `accuracy(X, X̃) = 1 − ‖X̃ − X‖ / ‖X‖`. The surrogate fit used for
//! Phase-2 stopping (see [`crate::pq::PqCache::surrogate_fit`]) measures
//! agreement with the Phase-1 reconstruction; the functions here measure
//! agreement with the *original* tensor, which is what the paper's
//! accuracy figures (Figure 13) report.

use crate::Result;
use tpcp_cp::{residual_sq, CpModel};
use tpcp_linalg::Mat;
use tpcp_partition::{Block, BlockSource, Grid};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// Exact fit of `model` against a dense tensor.
///
/// # Errors
/// Shape mismatches between model and tensor.
pub fn exact_fit_dense(model: &CpModel, x: &DenseTensor) -> Result<f64> {
    model.fit_dense(x).map_err(crate::TwoPcpError::from)
}

/// Exact fit of `model` against a sparse tensor.
///
/// # Errors
/// Shape mismatches between model and tensor.
pub fn exact_fit_sparse(model: &CpModel, x: &SparseTensor) -> Result<f64> {
    model.fit_sparse(x).map_err(crate::TwoPcpError::from)
}

/// The sub-model of `model` restricted to one grid block: each factor is
/// sliced to the block's row range (paper eq. 2 —
/// `X_k ≈ I ×₁ A(1)(k₁) … ×_N A(N)(k_N)`).
pub fn block_sub_model(model: &CpModel, grid: &Grid, block: usize) -> CpModel {
    let coords = grid.block_coords(block);
    let factors: Vec<Mat> = model
        .factors
        .iter()
        .enumerate()
        .map(|(mode, f)| {
            let range = grid.part_range(mode, coords[mode]);
            f.row_block(range.start, range.end - range.start)
        })
        .collect();
    CpModel {
        weights: model.weights.clone(),
        factors,
    }
}

/// Accumulator for the blockwise exact fit — the *one* range-walk both
/// the eager and the streaming entry points share.
#[derive(Default)]
struct FitAcc {
    err_sq: f64,
    x_sq: f64,
}

impl FitAcc {
    fn add_dense(
        &mut self,
        model: &CpModel,
        grid: &Grid,
        lin: usize,
        block: &DenseTensor,
    ) -> Result<()> {
        let sub = block_sub_model(model, grid, lin);
        let b_sq = block.fro_norm_sq();
        let inner = sub.inner_dense(block).map_err(crate::TwoPcpError::from)?;
        self.push(b_sq, inner, sub.norm_sq());
        Ok(())
    }

    fn add_sparse(
        &mut self,
        model: &CpModel,
        grid: &Grid,
        lin: usize,
        block: &SparseTensor,
    ) -> Result<()> {
        let sub = block_sub_model(model, grid, lin);
        let b_sq = block.fro_norm_sq();
        let inner = sub.inner_sparse(block).map_err(crate::TwoPcpError::from)?;
        self.push(b_sq, inner, sub.norm_sq());
        Ok(())
    }

    fn push(&mut self, b_sq: f64, inner: f64, m_sq: f64) {
        self.err_sq += residual_sq(b_sq, inner, m_sq);
        self.x_sq += b_sq;
    }

    fn fit(self) -> f64 {
        if self.x_sq <= 0.0 {
            return if self.err_sq <= 1e-30 {
                1.0
            } else {
                f64::NEG_INFINITY
            };
        }
        1.0 - (self.err_sq.sqrt() / self.x_sq.sqrt())
    }
}

/// Exact fit computed blockwise against dense blocks.
///
/// `blocks` must be in linear block-id order, as produced by
/// [`tpcp_partition::split_dense`]. For tensors that are never
/// materialised, use [`blockwise_fit_source`] instead.
///
/// # Errors
/// Shape mismatches between the model slices and the blocks.
pub fn blockwise_fit_dense(model: &CpModel, grid: &Grid, blocks: &[DenseTensor]) -> Result<f64> {
    let mut acc = FitAcc::default();
    for (lin, block) in blocks.iter().enumerate() {
        acc.add_dense(model, grid, lin, block)?;
    }
    Ok(acc.fit())
}

/// Exact fit computed by re-streaming the ingest source blockwise — only
/// one block of `X` is resident at a time, so the accuracy pass obeys the
/// same memory bound as streaming Phase 1. Note the blockwise error sum
/// can differ from the monolithic [`exact_fit_dense`] in the last few
/// floating-point digits (different summation order).
///
/// # Errors
/// Source failures and shape mismatches between model slices and blocks.
pub fn blockwise_fit_source(
    model: &CpModel,
    grid: &Grid,
    src: &mut dyn BlockSource,
) -> Result<f64> {
    let mut acc = FitAcc::default();
    for lin in 0..grid.num_blocks() {
        match src.load_block(grid, lin)? {
            Block::Dense(b) => acc.add_dense(model, grid, lin, &b)?,
            Block::Sparse(b) => acc.add_sparse(model, grid, lin, &b)?,
        }
    }
    Ok(acc.fit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_partition::split_dense;
    use tpcp_tensor::random_factor;

    fn model_and_tensor(dims: &[usize], f: usize, seed: u64) -> (CpModel, DenseTensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let model = CpModel::new(vec![1.0; f], factors).unwrap();
        let t = model.reconstruct_dense();
        (model, t)
    }

    #[test]
    fn blockwise_fit_matches_global_fit() {
        let (model, x) = model_and_tensor(&[8, 6, 4], 3, 2);
        let grid = Grid::new(x.dims(), &[2, 3, 2]);
        let blocks = split_dense(&x, &grid);
        let global = exact_fit_dense(&model, &x).unwrap();
        let blockwise = blockwise_fit_dense(&model, &grid, &blocks).unwrap();
        assert!((global - blockwise).abs() < 1e-6, "{global} vs {blockwise}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn block_sub_model_reconstructs_the_block() {
        let (model, x) = model_and_tensor(&[6, 6], 2, 5);
        let grid = Grid::uniform(x.dims(), 2);
        let blocks = split_dense(&x, &grid);
        for lin in 0..grid.num_blocks() {
            let sub = block_sub_model(&model, &grid, lin);
            let recon = sub.reconstruct_dense();
            for (a, b) in recon.as_slice().iter().zip(blocks[lin].as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn imperfect_model_fits_below_one() {
        let (model, mut x) = model_and_tensor(&[6, 6, 6], 2, 9);
        for v in x.as_mut_slice().iter_mut().step_by(3) {
            *v += 0.5;
        }
        let grid = Grid::uniform(x.dims(), 2);
        let blocks = split_dense(&x, &grid);
        let fit = blockwise_fit_dense(&model, &grid, &blocks).unwrap();
        assert!(fit < 0.999);
        assert!(fit > 0.0);
    }

    #[test]
    fn streaming_fit_matches_eager_blockwise_fit() {
        let (model, x) = model_and_tensor(&[8, 6, 4], 3, 4);
        let grid = Grid::new(x.dims(), &[2, 3, 2]);
        let blocks = split_dense(&x, &grid);
        let eager = blockwise_fit_dense(&model, &grid, &blocks).unwrap();
        let mut dsrc = tpcp_partition::DenseMemorySource::new(&x);
        let streamed = blockwise_fit_source(&model, &grid, &mut dsrc).unwrap();
        // Same blocks, same accumulation order — bitwise equal.
        assert_eq!(eager, streamed);
        // The sparse view of the same tensor agrees to rounding.
        let sp = SparseTensor::from_dense(&x, 0.0);
        let mut ssrc = tpcp_partition::SparseMemorySource::new(&sp);
        let sparse_streamed = blockwise_fit_source(&model, &grid, &mut ssrc).unwrap();
        assert!((streamed - sparse_streamed).abs() < 1e-9);
    }

    #[test]
    fn streaming_fit_over_order4_file_matches_exact_fit() {
        let (model, mut x) = model_and_tensor(&[6, 5, 4, 6], 3, 8);
        for v in x.as_mut_slice().iter_mut().step_by(4) {
            *v -= 0.3;
        }
        let dir = std::env::temp_dir().join(format!("tpcp_fit4_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.tpcp");
        tpcp_partition::FileTensorSource::write_dense(&path, &x).unwrap();
        let mut src = tpcp_partition::FileTensorSource::open(&path).unwrap();
        let grid = Grid::new(x.dims(), &[2, 2, 1, 3]);
        let streamed = blockwise_fit_source(&model, &grid, &mut src).unwrap();
        let exact = exact_fit_dense(&model, &x).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(exact < 0.999, "the perturbation must show: {exact}");
        assert!((streamed - exact).abs() < 1e-12, "{streamed} vs {exact}");
    }

    #[test]
    fn sparse_fit_agrees_with_dense() {
        let (model, x) = model_and_tensor(&[5, 5, 5], 2, 3);
        let sp = SparseTensor::from_dense(&x, 0.0);
        let d = exact_fit_dense(&model, &x).unwrap();
        let s = exact_fit_sparse(&model, &sp).unwrap();
        assert!((d - s).abs() < 1e-9);
    }
}
