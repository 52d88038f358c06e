//! Fully-connected (Caffe "InnerProduct") layer.

use super::{runs_csr, ChwShape, Layer, LayerKind, WeightSlot};
use cap_tensor::{
    gemm_i8, gemm_prepacked_slice_fused, precision, quant::quantize_rows_into, symmetric_scale,
    CalibrationMethod, CsrMatrix, EpiBias, Epilogue, Matrix, PackedB, PackedBI8, Precision,
    ShapeError, Tensor4, TensorResult, WorkspacePool,
};
use std::sync::atomic::{AtomicU32, Ordering};

/// Fully-connected layer: flattens each image to a vector and applies
/// `y = W x + b` with `W: out × in`.
///
/// Like [`super::ConvLayer`], the weights are executed from one form
/// built on the first forward, and pruned (sparse) weights run the CSR
/// kernels.
pub struct InnerProductLayer {
    name: String,
    in_features: usize,
    out_features: usize,
    weights: Matrix,
    bias: Vec<f32>,
    /// The executable form of `weights`; cleared by `set_weights`.
    form: WeightSlot<WeightFormat>,
    /// Calibrated input-activation scale as f32 bits; 0 (= 0.0) means
    /// uncalibrated (per-call max-abs fallback).
    act_scale: AtomicU32,
    /// Scratch pool for the sparse path's Xᵀ/Y staging at batch > 1 and
    /// the int8 path's quantized activations.
    pool: WorkspacePool,
}

/// What a fully-connected layer's kernels run. Each variant is served by
/// one kernel entry, except CSR: the matvec at batch 1, the SpMM above.
enum WeightFormat {
    /// Panel-packed transpose of the weights (`in × out`): the dense
    /// forward computes `Y = X · Wᵀ`, whose GEMM inner loop runs along
    /// the `out` dimension and vectorizes even at batch 1 (computing
    /// `W · Xᵀ` instead degenerates to single-column GEMM).
    Dense(PackedB),
    /// CSR of the weights, f32 under either precision: CSR row-skipping
    /// is bandwidth-bound, so int8 buys little there, and SpMV keeps its
    /// scalar-by-contract guarantee.
    Csr(CsrMatrix),
    /// int8 quantization of the packed transpose.
    Int8Dense(PackedBI8),
}

impl WeightFormat {
    fn build(weights: &Matrix, precision: Precision) -> Self {
        if runs_csr(weights) {
            return Self::Csr(CsrMatrix::from_dense(weights, 0.0));
        }
        // Packed straight from W: a materialized Wᵀ would be a second
        // full copy of the weights at the peak of the build.
        match precision {
            Precision::F32 => Self::Dense(PackedB::pack_transposed(weights)),
            Precision::Int8 => Self::Int8Dense(PackedBI8::pack_transposed(
                weights,
                symmetric_scale(weights.as_slice()),
            )),
        }
    }
}

impl InnerProductLayer {
    /// Create a fully-connected layer; validates shapes.
    pub fn new(name: impl Into<String>, weights: Matrix, bias: Vec<f32>) -> TensorResult<Self> {
        let (out_features, in_features) = weights.shape();
        if bias.len() != out_features {
            return Err(ShapeError::new(format!(
                "fc layer: bias length {} != out_features {}",
                bias.len(),
                out_features
            )));
        }
        Ok(Self {
            name: name.into(),
            in_features,
            out_features,
            weights,
            bias,
            form: WeightSlot::new(),
            act_scale: AtomicU32::new(0),
            pool: WorkspacePool::new(),
        })
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Calibrated activation scale, or a deterministic per-call max-abs
    /// estimate over the whole input when no calibration pass has run.
    fn act_scale_for(&self, input: &Tensor4) -> f32 {
        let s = f32::from_bits(self.act_scale.load(Ordering::Relaxed));
        if s > 0.0 {
            s
        } else {
            symmetric_scale(input.as_slice())
        }
    }

    /// Shared body of [`Layer::forward_into`] / [`Layer::forward_into_fused`]:
    /// the only difference is whether a ReLU rides the kernel epilogue.
    fn run(&self, inputs: &[&Tensor4], out: &mut Tensor4, relu: bool) -> TensorResult<()> {
        let [input] = inputs else {
            return Err(ShapeError::new("fc: expected exactly one input"));
        };
        if input.image_len() != self.in_features {
            return Err(ShapeError::new(format!(
                "fc {}: input features {} != {}",
                self.name,
                input.image_len(),
                self.in_features
            )));
        }
        let batch = input.n();
        out.resize(batch, self.out_features, 1, 1);
        let precision = precision::selected();
        let epi = Epilogue {
            bias: Some(EpiBias::PerCol(&self.bias)),
            relu,
        };
        let build = || Ok(WeightFormat::build(&self.weights, precision));
        self.form.run(precision, build, |form| match form {
            // Batch-1 sparse path: the product is a matvec, so run the
            // CSR spmv kernel straight from the input slice into the
            // output slice — no Xᵀ/Y staging, no allocation.
            WeightFormat::Csr(csr) if batch == 1 => {
                csr.matvec_fused_into(input.as_slice(), out.as_mut_slice(), Some(&self.bias), relu)
            }
            WeightFormat::Csr(csr) => {
                // CSR row-skipping needs W's rows, so compute W (out×in,
                // sparse) × Xᵀ (in×batch) in pooled scratch and transpose
                // back. Bias/ReLU ride the SpMM row store (CSR rows are
                // out features, so the bias is per-row there).
                let (in_f, out_f) = (self.in_features, self.out_features);
                let mut ws = self.pool.checkout();
                let (x_t, y) = ws.conv_slots((in_f, batch), (out_f, batch));
                let (x, xt) = (input.as_slice(), x_t.as_mut_slice());
                for b in 0..batch {
                    for i in 0..in_f {
                        xt[i * batch + b] = x[b * in_f + i];
                    }
                }
                csr.matmul_dense_into_fused(x_t, y, Some(&self.bias), relu)?;
                let (yv, o) = (y.as_slice(), out.as_mut_slice());
                for b in 0..batch {
                    for of in 0..out_f {
                        o[b * out_f + of] = yv[of * batch + b];
                    }
                }
                Ok(())
            }
            // Dense path: Y = X · Wᵀ, vectorizable at any batch size. A
            // `(n, c, 1, 1)` tensor's flat data IS the `n × c` row-major
            // matrix, so both input and output go straight through with
            // no copies: the GEMM writes into `out`'s reused buffer
            // (routing through the dedicated gemv kernel when batch is
            // 1), and bias/ReLU ride its store as a per-column epilogue
            // (out features are GEMM columns here).
            WeightFormat::Dense(w_t) => {
                gemm_prepacked_slice_fused(input.as_slice(), batch, w_t, out.as_mut_slice(), epi)
            }
            // Int8 dense path: quantize the flattened activations into
            // pooled scratch with the calibrated (or fallback) scale,
            // then run the integer GEMM against the quantized Wᵀ,
            // dequantizing by the combined scale in the store epilogue.
            WeightFormat::Int8Dense(qw) => {
                let act_scale = self.act_scale_for(input);
                let mut ws = self.pool.checkout();
                let qb = ws.qbuf_slot();
                let kp = quantize_rows_into(
                    input.as_slice(),
                    batch,
                    self.in_features,
                    1.0 / act_scale,
                    qb,
                );
                debug_assert_eq!(kp, qw.kp());
                let scale = qw.scale() * act_scale;
                gemm_i8(
                    qb,
                    batch,
                    kp,
                    self.out_features,
                    qw.data(),
                    out.as_mut_slice(),
                    scale,
                    epi,
                )
            }
        })
    }
}

impl Layer for InnerProductLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::InnerProduct
    }

    fn forward(&self, inputs: &[&Tensor4]) -> TensorResult<Tensor4> {
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        self.forward_into(inputs, &mut out)?;
        Ok(out)
    }

    fn forward_into(&self, inputs: &[&Tensor4], out: &mut Tensor4) -> TensorResult<()> {
        self.run(inputs, out, false)
    }

    fn supports_relu_fusion(&self) -> bool {
        true
    }

    fn forward_into_fused(&self, inputs: &[&Tensor4], out: &mut Tensor4) -> TensorResult<()> {
        self.run(inputs, out, true)
    }

    fn out_shape(&self, in_shapes: &[ChwShape]) -> TensorResult<ChwShape> {
        let [(c, h, w)] = in_shapes else {
            return Err(ShapeError::new("fc: expected exactly one input shape"));
        };
        if c * h * w != self.in_features {
            return Err(ShapeError::new(format!(
                "fc {}: input features {} != {}",
                self.name,
                c * h * w,
                self.in_features
            )));
        }
        Ok((self.out_features, 1, 1))
    }

    fn macs_per_image(&self, _in_shapes: &[ChwShape]) -> TensorResult<u64> {
        Ok(self.in_features as u64 * self.out_features as u64)
    }

    fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    fn weights(&self) -> Option<&Matrix> {
        Some(&self.weights)
    }

    fn set_weights(&mut self, weights: Matrix) -> TensorResult<()> {
        if weights.shape() != self.weights.shape() {
            return Err(ShapeError::new(format!(
                "fc {}: set_weights {:?}, expected {:?}",
                self.name,
                weights.shape(),
                self.weights.shape()
            )));
        }
        self.weights = weights;
        self.form.clear();
        Ok(())
    }

    fn observe_input(&self, inputs: &[&Tensor4], method: CalibrationMethod) {
        if let [input] = inputs {
            let s = method.scale_for(input.as_slice());
            self.act_scale.store(s.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{with_precision, SPARSE_THRESHOLD};
    use cap_tensor::gemm;

    #[test]
    fn computes_wx_plus_b() {
        // W = [[1,0],[0,2],[1,1]], b = [0.5, -0.5, 0].
        let w = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 2.0, 1.0, 1.0]).unwrap();
        let fc = InnerProductLayer::new("fc_t", w, vec![0.5, -0.5, 0.0]).unwrap();
        let x = Tensor4::from_vec(2, 2, 1, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        // Exact-equality oracle: pin f32 so an int8 precision leg does
        // not route this forward through the quantized path.
        let y = with_precision(Precision::F32, || fc.forward(&[&x]).unwrap());
        assert_eq!(y.shape(), (2, 3, 1, 1));
        assert_eq!(y.image(0), &[1.5, 3.5, 3.0]);
        assert_eq!(y.image(1), &[3.5, 7.5, 7.0]);
    }

    #[test]
    fn flattens_spatial_input() {
        let w = Matrix::identity(8);
        let fc = InnerProductLayer::new("fc_t", w, vec![0.0; 8]).unwrap();
        let x = Tensor4::from_fn(1, 2, 2, 2, |_, c, h, ww| (c * 4 + h * 2 + ww) as f32);
        let y = fc.forward(&[&x]).unwrap();
        assert_eq!(y.shape(), (1, 8, 1, 1));
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn sparse_path_matches_dense() {
        let mut w = Matrix::from_fn(6, 10, |r, c| ((r + c) % 3) as f32 - 1.0);
        for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let dense_result = {
            // Compute with dense gemm manually.
            let x = Matrix::from_fn(10, 3, |r, c| (r as f32 - c as f32) / 4.0);
            gemm(&w, &x).unwrap()
        };
        let fc = InnerProductLayer::new("fc_t", w, vec![0.0; 6]).unwrap();
        assert!(fc.weight_sparsity() > SPARSE_THRESHOLD);
        let x_t = Matrix::from_fn(10, 3, |r, c| (r as f32 - c as f32) / 4.0).transpose();
        let x = Tensor4::from_matrix(&x_t, 10, 1, 1).unwrap();
        let y = fc.forward(&[&x]).unwrap();
        for b in 0..3 {
            for o in 0..6 {
                assert!((y.get(b, o, 0, 0) - dense_result.get(o, b)).abs() < 1e-4);
            }
        }
    }

    /// A direct call of the one kernel entry that serves `fc`'s weights
    /// in format (`csr`, `precision`), outside the layer.
    fn direct_kernel(
        fc: &InnerProductLayer,
        x: &Tensor4,
        csr: bool,
        precision: Precision,
    ) -> Vec<f32> {
        let (w, batch) = (fc.weights().unwrap(), x.n());
        let mut y = vec![0.0; batch * fc.out_features()];
        let epi = Epilogue {
            bias: Some(EpiBias::PerCol(fc.bias())),
            relu: false,
        };
        if csr {
            // The batch-1 sparse route is the CSR matvec, in f32 under
            // either precision.
            assert_eq!(batch, 1);
            let sparse = CsrMatrix::from_dense(w, 0.0);
            sparse
                .matvec_fused_into(x.as_slice(), &mut y, Some(fc.bias()), false)
                .unwrap();
        } else if precision == Precision::F32 {
            let w_t = PackedB::pack(&w.transpose());
            gemm_prepacked_slice_fused(x.as_slice(), batch, &w_t, &mut y, epi).unwrap();
        } else {
            let qw = PackedBI8::pack(&w.transpose(), symmetric_scale(w.as_slice()));
            let act_scale = symmetric_scale(x.as_slice());
            let mut qx = Vec::new();
            let kp = quantize_rows_into(
                x.as_slice(),
                batch,
                fc.in_features(),
                1.0 / act_scale,
                &mut qx,
            );
            let n = fc.out_features();
            gemm_i8(
                &qx,
                batch,
                kp,
                n,
                qw.data(),
                &mut y,
                qw.scale() * act_scale,
                epi,
            )
            .unwrap();
        }
        y
    }

    #[test]
    fn format_follows_set_weights_and_precision() {
        let dense = Matrix::from_fn(6, 10, |r, c| ((r * 7 + c * 3) % 5) as f32 - 2.0 + 0.5);
        let sparse = Matrix::from_fn(6, 10, |r, c| {
            if (r + c) % 2 == 0 {
                0.0
            } else {
                dense.get(r, c)
            }
        });
        assert!(!runs_csr(&dense) && runs_csr(&sparse));
        let mut fc = InnerProductLayer::new("fc_t", dense.clone(), vec![0.25; 6]).unwrap();
        let x = Tensor4::from_fn(1, 10, 1, 1, |_, c, _, _| c as f32 * 0.3 - 1.2);
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Dense → CSR → dense weights, each run at f32 → int8 → f32
        // without another `set_weights`: every forward runs exactly the
        // kernel of the format its weights and precision call for.
        for (w, csr) in [(&dense, false), (&sparse, true), (&dense, false)] {
            fc.set_weights(w.clone()).unwrap();
            for precision in [Precision::F32, Precision::Int8, Precision::F32] {
                let got = with_precision(precision, || fc.forward(&[&x]).unwrap());
                let want = direct_kernel(&fc, &x, csr, precision);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(&want),
                    "{precision:?}, csr = {csr}"
                );
            }
        }
    }

    #[test]
    fn sparse_batched_path_matches_spmm_bitwise() {
        // Batch > 1 on CSR weights stages Xᵀ and Y in pooled scratch;
        // the result must be the SpMM of W and Xᵀ, transposed back.
        let w = Matrix::from_fn(6, 10, |r, c| {
            if (r + c) % 3 == 0 {
                (r as f32 - c as f32) / 4.0
            } else {
                0.0
            }
        });
        let bias: Vec<f32> = (0..6).map(|o| o as f32 * 0.1 - 0.2).collect();
        let fc = InnerProductLayer::new("fc_t", w.clone(), bias.clone()).unwrap();
        let x = Tensor4::from_fn(4, 10, 1, 1, |n, c, _, _| {
            ((n * 5 + c) % 9) as f32 / 3.0 - 1.0
        });
        let mut want = Matrix::zeros(6, 4);
        CsrMatrix::from_dense(&w, 0.0)
            .matmul_dense_into_fused(&x.to_matrix().transpose(), &mut want, Some(&bias), true)
            .unwrap();
        // Twice, so the second forward runs on recycled scratch.
        let mut got = Tensor4::zeros(0, 0, 0, 0);
        for _ in 0..2 {
            fc.forward_into_fused(&[&x], &mut got).unwrap();
            for b in 0..4 {
                for o in 0..6 {
                    assert_eq!(got.get(b, o, 0, 0).to_bits(), want.get(o, b).to_bits());
                }
            }
        }
    }

    #[test]
    fn shape_validation() {
        let fc = InnerProductLayer::new("fc_t", Matrix::zeros(3, 8), vec![0.0; 3]).unwrap();
        assert_eq!(fc.out_shape(&[(2, 2, 2)]).unwrap(), (3, 1, 1));
        assert!(fc.out_shape(&[(2, 2, 3)]).is_err());
        assert!(InnerProductLayer::new("bad", Matrix::zeros(3, 8), vec![0.0; 4]).is_err());
    }

    #[test]
    fn macs_is_in_times_out() {
        let fc = InnerProductLayer::new("fc_t", Matrix::zeros(3, 8), vec![0.0; 3]).unwrap();
        assert_eq!(fc.macs_per_image(&[(8, 1, 1)]).unwrap(), 24);
    }
}
