//! The CP model: weighted rank-one components.

use crate::{mttkrp_dense, CpError, Result};
use tpcp_linalg::{hadamard_all, Mat};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// A rank-`F` CP decomposition: `X̃ = Σ_f λ_f · a⁽¹⁾_f ∘ … ∘ a⁽ᴺ⁾_f`.
///
/// `factors[h]` is the `I_h × F` factor matrix of mode `h`; `weights` holds
/// the component magnitudes `λ` (factors are conventionally column-
/// normalised, but the type does not require it).
#[derive(Clone, Debug, PartialEq)]
pub struct CpModel {
    /// Component weights `λ₁ … λ_F`.
    pub weights: Vec<f64>,
    /// Per-mode factor matrices, each `I_h × F`.
    pub factors: Vec<Mat>,
}

impl CpModel {
    /// Creates a model after validating factor shapes.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when factor column counts disagree with the
    /// weight count.
    pub fn new(weights: Vec<f64>, factors: Vec<Mat>) -> Result<Self> {
        let f = weights.len();
        for (h, m) in factors.iter().enumerate() {
            if m.cols() != f {
                return Err(CpError::BadFactors {
                    reason: format!("factor {h} has {} columns, expected rank {f}", m.cols()),
                });
            }
        }
        Ok(CpModel { weights, factors })
    }

    /// An all-zero model of the given shape (used for empty blocks — the
    /// paper's footnote 3: "if the sub-tensor is empty, then the factors
    /// are 0 matrices of the appropriate size").
    pub fn zeros(dims: &[usize], rank: usize) -> Self {
        CpModel {
            weights: vec![0.0; rank],
            factors: dims.iter().map(|&d| Mat::zeros(d, rank)).collect(),
        }
    }

    /// Decomposition rank `F`.
    pub fn rank(&self) -> usize {
        self.weights.len()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// The dimensions the model reconstructs.
    pub fn dims(&self) -> Vec<usize> {
        self.factors.iter().map(Mat::rows).collect()
    }

    /// Folds the weights into mode `mode`'s factor and sets them to one.
    pub fn absorb_weights(&mut self, mode: usize) {
        self.factors[mode].scale_columns(&self.weights);
        self.weights.fill(1.0);
    }

    /// Normalises every factor's columns, accumulating the norms into the
    /// weights (the canonical presentation of a CP model).
    pub fn normalize(&mut self) {
        for factor in &mut self.factors {
            let norms = factor.normalize_columns();
            for (w, n) in self.weights.iter_mut().zip(norms) {
                *w *= n;
            }
        }
    }

    /// Squared Frobenius norm of the reconstruction, via the Gram identity
    /// `‖X̃‖² = λᵀ (⊛_h A⁽ʰ⁾ᵀA⁽ʰ⁾) λ` — `O(N·I·F²)`, no materialisation.
    pub fn norm_sq(&self) -> f64 {
        if self.factors.is_empty() || self.rank() == 0 {
            return 0.0;
        }
        let grams: Vec<Mat> = self.factors.iter().map(Mat::gram).collect();
        let refs: Vec<&Mat> = grams.iter().collect();
        let g = hadamard_all(&refs).expect("grams share FxF shape");
        let f = self.rank();
        let mut total = 0.0;
        for i in 0..f {
            for j in 0..f {
                total += self.weights[i] * g.get(i, j) * self.weights[j];
            }
        }
        total.max(0.0)
    }

    /// Inner product `⟨X, X̃⟩` against a dense tensor, through the fused
    /// dense MTTKRP: `Σ_i Σ_s M₀[i,s] · A⁽⁰⁾[i,s] · λ_s` with
    /// `M₀ = X_(0) · KR(A⁽¹⁾, …)`. An order-0 model is zero, as in
    /// [`CpModel::norm_sq`].
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn inner_dense(&self, x: &DenseTensor) -> Result<f64> {
        self.check_dims(x.dims())?;
        let Some(a0) = self.factors.first() else {
            return Ok(0.0);
        };
        let refs: Vec<&Mat> = self.factors.iter().collect();
        let m0 = mttkrp_dense(x, &refs, 0)?;
        let mut total = 0.0;
        for i in 0..m0.rows() {
            for ((&m, &a), &w) in m0.row(i).iter().zip(a0.row(i)).zip(&self.weights) {
                total += m * a * w;
            }
        }
        Ok(total)
    }

    /// Inner product `⟨X, X̃⟩` against a sparse tensor.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn inner_sparse(&self, x: &SparseTensor) -> Result<f64> {
        self.check_dims(x.dims())?;
        let f = self.rank();
        let mut total = 0.0;
        let mut prod = vec![0.0f64; f];
        x.for_each_entry(|idx, v| {
            prod.copy_from_slice(&self.weights);
            for (m, &c) in idx.iter().enumerate() {
                for (p, &a) in prod.iter_mut().zip(self.factors[m].row(c as usize)) {
                    *p *= a;
                }
            }
            total += v * prod.iter().sum::<f64>();
        });
        Ok(total)
    }

    /// Decomposition accuracy against a dense tensor (paper §III-B):
    /// `1 − ‖X̃ − X‖ / ‖X‖`, computed without materialising `X̃`.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn fit_dense(&self, x: &DenseTensor) -> Result<f64> {
        let x_sq = x.fro_norm_sq();
        let inner = self.inner_dense(x)?;
        Ok(fit_from_parts(x_sq, inner, self.norm_sq()))
    }

    /// Decomposition accuracy against a sparse tensor.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn fit_sparse(&self, x: &SparseTensor) -> Result<f64> {
        let x_sq = x.fro_norm_sq();
        let inner = self.inner_sparse(x)?;
        Ok(fit_from_parts(x_sq, inner, self.norm_sq()))
    }

    /// Materialises the reconstruction densely (tests / small tensors).
    pub fn reconstruct_dense(&self) -> DenseTensor {
        let dims = self.dims();
        let mut out = DenseTensor::zeros(&dims);
        if out.is_empty() {
            return out;
        }
        let order = self.order();
        let f = self.rank();
        let mut coords = vec![0usize; order];
        let mut prod = vec![0.0f64; f];
        let data = out.as_mut_slice();
        for (lin, slot) in data.iter_mut().enumerate() {
            let mut rem = lin;
            for m in (0..order).rev() {
                coords[m] = rem % dims[m];
                rem /= dims[m];
            }
            prod.copy_from_slice(&self.weights);
            for (m, &c) in coords.iter().enumerate() {
                for (p, &a) in prod.iter_mut().zip(self.factors[m].row(c)) {
                    *p *= a;
                }
            }
            *slot = prod.iter().sum::<f64>();
        }
        out
    }

    fn check_dims(&self, dims: &[usize]) -> Result<()> {
        if self.dims() != dims {
            return Err(CpError::BadFactors {
                reason: format!("model dims {:?} vs tensor dims {:?}", self.dims(), dims),
            });
        }
        Ok(())
    }
}

/// Rounding floor of the residual identity, in units of `ε·(‖X‖² +
/// 2|⟨X,X̃⟩| + ‖X̃‖²)`; see [`residual_sq`].
const RESIDUAL_FLOOR_ULPS: f64 = 32.0;

/// `‖X − X̃‖² = ‖X‖² − 2⟨X,X̃⟩ + ‖X̃‖²`, reported as zero when it lies
/// within the identity's rounding floor. Below
/// `32·ε·(‖X‖² + 2|⟨X,X̃⟩| + ‖X̃‖²)` the three-term sum cannot tell a
/// residual from cancellation noise: a one-ulp change in how `⟨X,X̃⟩` is
/// summed would otherwise move the fit of an exact model by `~√ε`.
pub fn residual_sq(x_sq: f64, inner: f64, model_sq: f64) -> f64 {
    let err_sq = x_sq - 2.0 * inner + model_sq;
    let floor = RESIDUAL_FLOOR_ULPS * f64::EPSILON * (x_sq + 2.0 * inner.abs() + model_sq);
    if err_sq <= floor {
        0.0
    } else {
        err_sq
    }
}

/// `1 − sqrt(residual_sq) / ‖X‖` (see [`residual_sq`]), guarding
/// degenerate zero-norm inputs (fit of anything against the zero tensor is
/// 1 iff the model is also zero).
pub(crate) fn fit_from_parts(x_sq: f64, inner: f64, model_sq: f64) -> f64 {
    let err_sq = residual_sq(x_sq, inner, model_sq);
    if x_sq <= 0.0 {
        return if model_sq <= 1e-30 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - (err_sq.sqrt() / x_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed rank-2 3-mode model used across tests.
    fn sample_model() -> CpModel {
        CpModel::new(
            vec![2.0, 0.5],
            vec![
                Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
                Mat::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]),
                Mat::from_rows(&[&[0.5, 1.0], &[1.0, 0.0], &[2.0, 2.0], &[0.0, 1.0]]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_rank() {
        let bad = CpModel::new(vec![1.0], vec![Mat::zeros(3, 2)]);
        assert!(matches!(bad, Err(CpError::BadFactors { .. })));
    }

    #[test]
    fn zeros_model() {
        let m = CpModel::zeros(&[2, 3], 4);
        assert_eq!(m.rank(), 4);
        assert_eq!(m.dims(), vec![2, 3]);
        assert_eq!(m.norm_sq(), 0.0);
        assert_eq!(m.reconstruct_dense().nnz(), 0);
    }

    #[test]
    fn norm_sq_matches_reconstruction() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        assert!((m.norm_sq() - recon.fro_norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn inner_dense_matches_reconstruction() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        // ⟨X̃, X̃⟩ must equal ‖X̃‖².
        assert!((m.inner_dense(&recon).unwrap() - m.norm_sq()).abs() < 1e-9);
    }

    /// A random rank-3 model over `dims` and an unrelated random tensor.
    fn random_model_and_tensor(dims: &[usize], seed: u64) -> (CpModel, DenseTensor) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors = dims
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, 3, &mut rng))
            .collect();
        let model = CpModel::new(vec![1.5, -0.5, 2.0], factors).unwrap();
        (model, tpcp_tensor::random_dense(dims, &mut rng))
    }

    #[test]
    fn inner_and_fit_dense_match_reconstruction_orders_1_to_5() {
        let shapes: [&[usize]; 5] = [&[7], &[5, 4], &[4, 3, 5], &[3, 4, 2, 3], &[2, 3, 2, 3, 2]];
        for (seed, dims) in shapes.into_iter().enumerate() {
            let (m, x) = random_model_and_tensor(dims, seed as u64);
            let recon = m.reconstruct_dense();
            let expect: f64 = x
                .as_slice()
                .iter()
                .zip(recon.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let inner = m.inner_dense(&x).unwrap();
            assert!(
                (inner - expect).abs() <= 1e-12 * expect.abs().max(1.0),
                "dims {dims:?}"
            );
            let err_sq: f64 = x
                .as_slice()
                .iter()
                .zip(recon.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            let expect_fit = 1.0 - err_sq.sqrt() / x.fro_norm_sq().sqrt();
            let fit = m.fit_dense(&x).unwrap();
            assert!(
                (fit - expect_fit).abs() < 1e-10,
                "dims {dims:?}: {fit} vs {expect_fit}"
            );
        }
    }

    #[test]
    fn inner_sparse_matches_dense() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        let sp = SparseTensor::from_dense(&recon, 0.0);
        assert!((m.inner_sparse(&sp).unwrap() - m.inner_dense(&recon).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn fit_of_exact_model_is_one() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        assert!((m.fit_dense(&recon).unwrap() - 1.0).abs() < 1e-6);
        let sp = SparseTensor::from_dense(&recon, 0.0);
        assert!((m.fit_sparse(&sp).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fit_degrades_with_noise() {
        let m = sample_model();
        let mut noisy = m.reconstruct_dense();
        for (i, v) in noisy.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.25 } else { -0.25 };
        }
        let fit = m.fit_dense(&noisy).unwrap();
        assert!(fit < 1.0 - 1e-4);
    }

    #[test]
    fn normalize_preserves_reconstruction() {
        let mut m = sample_model();
        let before = m.reconstruct_dense();
        m.normalize();
        let after = m.reconstruct_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        // Every factor column now has unit norm (or zero).
        for f in &m.factors {
            for n in f.column_norms() {
                assert!(n < 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn absorb_weights_preserves_reconstruction() {
        let mut m = sample_model();
        let before = m.reconstruct_dense();
        m.absorb_weights(1);
        assert!(m.weights.iter().all(|&w| w == 1.0));
        let after = m.reconstruct_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fit_zero_tensor_edge_cases() {
        let zero = DenseTensor::zeros(&[2, 2]);
        let zero_model = CpModel::zeros(&[2, 2], 1);
        assert_eq!(zero_model.fit_dense(&zero).unwrap(), 1.0);
        let nonzero_model = CpModel::new(
            vec![1.0],
            vec![Mat::filled(2, 1, 1.0), Mat::filled(2, 1, 1.0)],
        )
        .unwrap();
        assert_eq!(nonzero_model.fit_dense(&zero).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn dims_mismatch_is_reported() {
        let m = sample_model();
        let wrong = DenseTensor::zeros(&[3, 2, 3]);
        assert!(m.fit_dense(&wrong).is_err());
    }
}
