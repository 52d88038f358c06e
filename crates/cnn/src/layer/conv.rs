//! Convolution layer with a sparse fast path for pruned weights.

use super::{runs_csr, ChwShape, Layer, LayerKind, WeightSlot};
use cap_tensor::{
    conv2d_gemm_packed_fused, conv2d_i8_packed_fused, conv2d_i8_sparse_fused,
    conv2d_sparse_packed_fused, precision, symmetric_scale, CalibrationMethod, Conv2dParams,
    CsrMatrix, Matrix, PackedConvWeights, PackedSparseConvWeights, Precision, QuantizedConvWeights,
    QuantizedSparseConvWeights, ShapeError, Tensor4, TensorResult, WorkspacePool,
};
use std::sync::atomic::{AtomicU32, Ordering};

/// 2-D convolution layer (optionally grouped, AlexNet-style).
///
/// Weights are stored dense and executed from one form built from them
/// on the first forward: per-group CSR bands when their zero fraction
/// exceeds [`super::SPARSE_THRESHOLD`], so pruning translates into real
/// wall-clock savings exactly as in the sparse-Caffe substrate of the
/// paper, and per-group dense bands otherwise — quantized to int8 when
/// the process runs at that precision. im2col / GEMM scratch comes from a
/// per-layer [`WorkspacePool`], so steady-state forwards allocate nothing.
pub struct ConvLayer {
    name: String,
    params: Conv2dParams,
    weights: Matrix,
    bias: Vec<f32>,
    /// The executable form of `weights`; cleared by `set_weights`.
    form: WeightSlot<WeightFormat>,
    /// Calibrated input-activation scale as f32 bits; 0 (= 0.0) means
    /// uncalibrated, in which case the int8 path falls back to a
    /// per-call max-abs estimate over the whole input tensor.
    act_scale: AtomicU32,
    /// Reusable im2col/product scratch shared across forward calls.
    pool: WorkspacePool,
}

/// What a convolution's kernels run: its weights split into per-group
/// bands, each variant served by exactly one kernel entry.
enum WeightFormat {
    Dense(PackedConvWeights),
    Csr(PackedSparseConvWeights),
    Int8Dense(QuantizedConvWeights),
    Int8Csr(QuantizedSparseConvWeights),
}

impl WeightFormat {
    fn build(weights: &Matrix, params: &Conv2dParams, precision: Precision) -> TensorResult<Self> {
        if runs_csr(weights) {
            let csr = CsrMatrix::from_dense(weights, 0.0);
            Ok(match precision {
                Precision::F32 => Self::Csr(PackedSparseConvWeights::pack(&csr, params)?),
                Precision::Int8 => Self::Int8Csr(QuantizedSparseConvWeights::pack(&csr, params)?),
            })
        } else {
            Ok(match precision {
                Precision::F32 => Self::Dense(PackedConvWeights::pack(weights, params)?),
                Precision::Int8 => Self::Int8Dense(QuantizedConvWeights::pack(weights, params)?),
            })
        }
    }
}

impl ConvLayer {
    /// Create a convolution layer; validates weight/bias shapes against
    /// the geometry.
    pub fn new(
        name: impl Into<String>,
        params: Conv2dParams,
        weights: Matrix,
        bias: Vec<f32>,
    ) -> TensorResult<Self> {
        params.validate()?;
        let expected = (
            params.out_channels,
            params.in_per_group() * params.kh * params.kw,
        );
        if weights.shape() != expected {
            return Err(ShapeError::new(format!(
                "conv layer: weights {:?}, expected {:?}",
                weights.shape(),
                expected
            )));
        }
        if bias.len() != params.out_channels {
            return Err(ShapeError::new(format!(
                "conv layer: bias length {} != out_channels {}",
                bias.len(),
                params.out_channels
            )));
        }
        Ok(Self {
            name: name.into(),
            params,
            weights,
            bias,
            form: WeightSlot::new(),
            act_scale: AtomicU32::new(0),
            pool: WorkspacePool::new(),
        })
    }

    /// Geometry of this convolution.
    pub fn params(&self) -> &Conv2dParams {
        &self.params
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Calibrated activation scale, or a deterministic per-call max-abs
    /// estimate when no calibration pass has run. The fallback scans
    /// the whole input tensor once, before any parallel fan-out, so
    /// results do not depend on worker count or image order.
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
            return Err(ShapeError::new("conv: expected exactly one input"));
        };
        let precision = precision::selected();
        let (bias, params, pool) = (Some(self.bias.as_slice()), &self.params, &self.pool);
        self.form.run(
            precision,
            || WeightFormat::build(&self.weights, params, precision),
            |form| match form {
                WeightFormat::Dense(w) => {
                    conv2d_gemm_packed_fused(input, w, bias, params, pool, out, relu)
                }
                WeightFormat::Csr(w) => {
                    conv2d_sparse_packed_fused(input, w, bias, params, pool, out, relu)
                }
                WeightFormat::Int8Dense(w) => {
                    let act_scale = self.act_scale_for(input);
                    conv2d_i8_packed_fused(input, w, bias, params, pool, out, relu, act_scale)
                }
                WeightFormat::Int8Csr(w) => {
                    let act_scale = self.act_scale_for(input);
                    conv2d_i8_sparse_fused(input, w, bias, params, pool, out, relu, act_scale)
                }
            },
        )
    }
}

impl Layer for ConvLayer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> LayerKind {
        LayerKind::Convolution
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
            return Err(ShapeError::new("conv: expected exactly one input shape"));
        };
        if *c != self.params.in_channels {
            return Err(ShapeError::new(format!(
                "conv {}: input channels {} != {}",
                self.name, c, self.params.in_channels
            )));
        }
        let (oh, ow) = self.params.out_shape(*h, *w)?;
        Ok((self.params.out_channels, oh, ow))
    }

    fn macs_per_image(&self, in_shapes: &[ChwShape]) -> TensorResult<u64> {
        let [(_, h, w)] = in_shapes else {
            return Err(ShapeError::new("conv: expected exactly one input shape"));
        };
        self.params.macs(*h, *w)
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
                "conv {}: set_weights {:?}, expected {:?}",
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
    use cap_tensor::conv2d_gemm;
    use cap_tensor::init::xavier_uniform;

    fn layer(sparsify: bool) -> ConvLayer {
        let params = Conv2dParams::new(3, 4, 3, 1, 1);
        let mut w = xavier_uniform(4, 27, 99);
        if sparsify {
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
        }
        ConvLayer::new("conv_t", params, w, vec![0.1; 4]).unwrap()
    }

    #[test]
    fn dense_and_sparse_paths_agree() {
        let dense = layer(false);
        let mut sparse_weights = dense.weights().unwrap().clone();
        for (i, v) in sparse_weights.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let mut zeroed_dense = layer(false);
        zeroed_dense.set_weights(sparse_weights).unwrap();
        assert!(zeroed_dense.weight_sparsity() > SPARSE_THRESHOLD);

        let input = Tensor4::from_fn(2, 3, 5, 5, |n, c, h, w| ((n + c + h + w) % 5) as f32 - 2.0);
        // Force both paths on the same weights: sparse via the layer (its
        // sparsity > threshold), dense via direct kernel call. The layer
        // route is pinned to f32 — the dense reference is the exact f32
        // kernel, so an int8 precision leg would route `forward` through
        // the quantized path and break the tight tolerance.
        let via_layer = with_precision(Precision::F32, || zeroed_dense.forward(&[&input]).unwrap());
        let via_dense = conv2d_gemm(
            &input,
            zeroed_dense.weights().unwrap(),
            Some(zeroed_dense.bias()),
            zeroed_dense.params(),
        )
        .unwrap();
        assert!(via_layer.max_abs_diff(&via_dense).unwrap() < 1e-4);
    }

    /// A direct call of the one kernel entry that serves `layer`'s
    /// weights in `format` (`csr`, `precision`), outside the layer.
    fn direct_kernel(
        layer: &ConvLayer,
        input: &Tensor4,
        csr: bool,
        precision: Precision,
    ) -> Tensor4 {
        let (w, params, bias) = (layer.weights().unwrap(), layer.params(), Some(layer.bias()));
        let pool = WorkspacePool::new();
        let mut out = Tensor4::zeros(0, 0, 0, 0);
        let scale = symmetric_scale(input.as_slice());
        let sparse = CsrMatrix::from_dense(w, 0.0);
        match (csr, precision) {
            (false, Precision::F32) => {
                let packed = PackedConvWeights::pack(w, params).unwrap();
                conv2d_gemm_packed_fused(input, &packed, bias, params, &pool, &mut out, false)
            }
            (true, Precision::F32) => {
                let packed = PackedSparseConvWeights::pack(&sparse, params).unwrap();
                conv2d_sparse_packed_fused(input, &packed, bias, params, &pool, &mut out, false)
            }
            (false, Precision::Int8) => {
                let q = QuantizedConvWeights::pack(w, params).unwrap();
                conv2d_i8_packed_fused(input, &q, bias, params, &pool, &mut out, false, scale)
            }
            (true, Precision::Int8) => {
                let q = QuantizedSparseConvWeights::pack(&sparse, params).unwrap();
                conv2d_i8_sparse_fused(input, &q, bias, params, &pool, &mut out, false, scale)
            }
        }
        .unwrap();
        out
    }

    #[test]
    fn format_follows_set_weights_and_precision() {
        let mut l = layer(false);
        let dense = l.weights().unwrap().clone();
        let sparse = layer(true).weights().unwrap().clone();
        assert!(!runs_csr(&dense) && runs_csr(&sparse));
        let input = Tensor4::from_fn(2, 3, 5, 5, |n, c, h, w| {
            ((n * 3 + c + h + w) % 7) as f32 - 3.0
        });
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Dense → CSR → dense weights, each run at f32 → int8 → f32
        // without another `set_weights`: every forward runs exactly the
        // kernel of the format its weights and precision call for.
        for (w, csr) in [(&dense, false), (&sparse, true), (&dense, false)] {
            l.set_weights(w.clone()).unwrap();
            for precision in [Precision::F32, Precision::Int8, Precision::F32] {
                let got = with_precision(precision, || l.forward(&[&input]).unwrap());
                let want = direct_kernel(&l, &input, csr, precision);
                assert_eq!(bits(&got), bits(&want), "{precision:?}, csr = {csr}");
            }
        }
    }

    #[test]
    fn out_shape_and_macs() {
        let l = layer(false);
        assert_eq!(l.out_shape(&[(3, 5, 5)]).unwrap(), (4, 5, 5));
        assert_eq!(l.macs_per_image(&[(3, 5, 5)]).unwrap(), 4 * 5 * 5 * 3 * 9);
        assert!(l.out_shape(&[(2, 5, 5)]).is_err());
    }

    #[test]
    fn param_count_includes_bias() {
        let l = layer(false);
        assert_eq!(l.param_count(), 4 * 27 + 4);
    }

    #[test]
    fn set_weights_validates_shape() {
        let mut l = layer(false);
        assert!(l.set_weights(Matrix::zeros(4, 26)).is_err());
        assert!(l.set_weights(Matrix::zeros(4, 27)).is_ok());
        assert_eq!(l.weight_sparsity(), 1.0);
    }

    #[test]
    fn rejects_multiple_inputs() {
        let l = layer(false);
        let t = Tensor4::zeros(1, 3, 5, 5);
        assert!(l.forward(&[&t, &t]).is_err());
    }
}
