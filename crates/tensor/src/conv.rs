//! 2-D convolution kernels: im2col+GEMM (Caffe's scheme), a direct
//! sliding-window reference, and a sparse-weight variant for pruned layers.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::gemm::{gemm_packed_cols_fused, gemm_prealloc};
use crate::im2col::{im2col_packed_prealloc, im2col_prealloc, out_spatial};
use crate::kernels::{EpiBias, Epilogue};
use crate::sparse::CsrMatrix;
use crate::tensor4::Tensor4;
use crate::workspace::WorkspacePool;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Start a clock for the GEMM/im2col time split, only when timed
/// metrics are on (`timing` is hoisted out of the parallel image loop).
#[inline]
pub(crate) fn split_clock(timing: bool) -> Option<Instant> {
    if timing {
        Some(Instant::now())
    } else {
        None
    }
}

/// Credit elapsed time since `t0` to `counter` (no-op when timing off).
#[inline]
pub(crate) fn credit_ns(t0: Option<Instant>, counter: &cap_obs::Counter) {
    if let Some(t0) = t0 {
        counter.add(t0.elapsed().as_nanos() as u64);
    }
}

/// Geometry of a 2-D convolution.
///
/// `groups` implements AlexNet/Caffenet-style grouped convolution: input
/// and output channels are split into `groups` equal slices convolved
/// independently (Caffenet conv2/4/5 use `groups = 2`, which is why
/// Table 1 lists conv2 filters as `5×5×48` against a 96-channel input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of filters).
    pub out_channels: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Symmetric zero padding.
    pub pad: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Channel groups.
    pub groups: usize,
}

impl Conv2dParams {
    /// Convenience constructor for an ungrouped convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            pad,
            stride,
            groups: 1,
        }
    }

    /// Same, with channel groups.
    pub fn grouped(
        in_channels: usize,
        out_channels: usize,
        k: usize,
        pad: usize,
        stride: usize,
        groups: usize,
    ) -> Self {
        Self {
            in_channels,
            out_channels,
            kh: k,
            kw: k,
            pad,
            stride,
            groups,
        }
    }

    /// Input channels per group.
    pub fn in_per_group(&self) -> usize {
        self.in_channels / self.groups.max(1)
    }

    /// Output channels per group.
    pub fn out_per_group(&self) -> usize {
        self.out_channels / self.groups.max(1)
    }

    /// Weight element count: `out_channels × in_per_group × kh × kw`.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.in_per_group() * self.kh * self.kw
    }

    /// Output spatial shape for an `h×w` input.
    pub fn out_shape(&self, h: usize, w: usize) -> TensorResult<(usize, usize)> {
        out_spatial(h, w, self.kh, self.kw, self.pad, self.stride)
    }

    /// Validate structural invariants (divisibility by groups, non-zero dims).
    pub fn validate(&self) -> TensorResult<()> {
        if self.groups == 0 {
            return Err(ShapeError::new("conv: groups must be >= 1"));
        }
        if !self.in_channels.is_multiple_of(self.groups)
            || !self.out_channels.is_multiple_of(self.groups)
        {
            return Err(ShapeError::new(format!(
                "conv: channels ({} in, {} out) not divisible by groups {}",
                self.in_channels, self.out_channels, self.groups
            )));
        }
        if self.in_channels == 0 || self.out_channels == 0 {
            return Err(ShapeError::new("conv: channel counts must be >= 1"));
        }
        Ok(())
    }

    /// Multiply–accumulate count for one image
    /// (`2 × macs` gives FLOPs; the CNN crate's FLOP model builds on this).
    pub fn macs(&self, h: usize, w: usize) -> TensorResult<u64> {
        let (oh, ow) = self.out_shape(h, w)?;
        Ok(self.out_channels as u64
            * oh as u64
            * ow as u64
            * self.in_per_group() as u64
            * self.kh as u64
            * self.kw as u64)
    }
}

fn check_weights(params: &Conv2dParams, weights: &Matrix) -> TensorResult<()> {
    params.validate()?;
    let expected = (
        params.out_channels,
        params.in_per_group() * params.kh * params.kw,
    );
    if weights.shape() != expected {
        return Err(ShapeError::new(format!(
            "conv: weights {:?}, expected {:?}",
            weights.shape(),
            expected
        )));
    }
    Ok(())
}

fn check_input(params: &Conv2dParams, input: &Tensor4) -> TensorResult<()> {
    if input.c() != params.in_channels {
        return Err(ShapeError::new(format!(
            "conv: input channels {} != {}",
            input.c(),
            params.in_channels
        )));
    }
    Ok(())
}

fn check_bias(params: &Conv2dParams, bias: Option<&[f32]>) -> TensorResult<()> {
    if let Some(b) = bias {
        if b.len() != params.out_channels {
            return Err(ShapeError::new(format!(
                "conv: bias length {} != out_channels {}",
                b.len(),
                params.out_channels
            )));
        }
    }
    Ok(())
}

/// Convolution via im2col + GEMM — the production path, matching Caffe.
///
/// `weights` is `out_channels × (in_per_group*kh*kw)`; `bias`, when given,
/// has one entry per output channel. Images in the batch are processed in
/// parallel.
pub fn conv2d_gemm(
    input: &Tensor4,
    weights: &Matrix,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> TensorResult<Tensor4> {
    check_weights(params, weights)?;
    check_input(params, input)?;
    check_bias(params, bias)?;
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);

    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    let col_rows = cpg * params.kh * params.kw;
    let n_out = oh * ow;
    let out_image_len = params.out_channels * n_out;

    let images: Vec<&[f32]> = (0..n).map(|i| input.image(i)).collect();
    out.as_mut_slice()
        .par_chunks_mut(out_image_len.max(1))
        .zip(images.into_par_iter())
        .try_for_each(|(out_img, in_img)| -> TensorResult<()> {
            let mut cols = Matrix::zeros(col_rows, n_out);
            let mut prod = Matrix::zeros(opg, n_out);
            for g in 0..params.groups {
                let in_slice = &in_img[g * cpg * h * w..(g + 1) * cpg * h * w];
                im2col_prealloc(
                    in_slice,
                    cpg,
                    h,
                    w,
                    params.kh,
                    params.kw,
                    params.pad,
                    params.stride,
                    &mut cols,
                )?;
                // Weight rows for this group form a contiguous band.
                let wg = Matrix::from_vec(
                    opg,
                    col_rows,
                    weights.as_slice()[g * opg * col_rows..(g + 1) * opg * col_rows].to_vec(),
                )?;
                gemm_prealloc(&wg, &cols, &mut prod)?;
                let dst = &mut out_img[g * opg * n_out..(g + 1) * opg * n_out];
                dst.copy_from_slice(prod.as_slice());
            }
            if let Some(b) = bias {
                for (oc, bval) in b.iter().enumerate() {
                    for v in &mut out_img[oc * n_out..(oc + 1) * n_out] {
                        *v += bval;
                    }
                }
            }
            Ok(())
        })?;
    Ok(out)
}

/// Convolution with CSR-sparse weights — the pruned-layer fast path.
///
/// Identical contract to [`conv2d_gemm`] but the filter matrix is sparse;
/// cost scales with stored weights, which is how pruning turns into
/// wall-clock savings.
pub fn conv2d_sparse(
    input: &Tensor4,
    weights: &CsrMatrix,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> TensorResult<Tensor4> {
    params.validate()?;
    check_input(params, input)?;
    check_bias(params, bias)?;
    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    let col_rows = cpg * params.kh * params.kw;
    if weights.shape() != (params.out_channels, col_rows) {
        return Err(ShapeError::new(format!(
            "conv_sparse: weights {:?}, expected {:?}",
            weights.shape(),
            (params.out_channels, col_rows)
        )));
    }
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let n_out = oh * ow;
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);
    let out_image_len = params.out_channels * n_out;

    // Pre-split the CSR weights per group (cheap: index arithmetic only).
    let dense = weights.to_dense();
    let group_csr: Vec<CsrMatrix> = (0..params.groups)
        .map(|g| {
            let band = Matrix::from_vec(
                opg,
                col_rows,
                dense.as_slice()[g * opg * col_rows..(g + 1) * opg * col_rows].to_vec(),
            )
            .expect("band slice has exactly opg*col_rows elements");
            CsrMatrix::from_dense(&band, 0.0)
        })
        .collect();

    let images: Vec<&[f32]> = (0..n).map(|i| input.image(i)).collect();
    out.as_mut_slice()
        .par_chunks_mut(out_image_len.max(1))
        .zip(images.into_par_iter())
        .try_for_each(|(out_img, in_img)| -> TensorResult<()> {
            let mut cols = Matrix::zeros(col_rows, n_out);
            for (g, wg) in group_csr.iter().enumerate() {
                let in_slice = &in_img[g * cpg * h * w..(g + 1) * cpg * h * w];
                im2col_prealloc(
                    in_slice,
                    cpg,
                    h,
                    w,
                    params.kh,
                    params.kw,
                    params.pad,
                    params.stride,
                    &mut cols,
                )?;
                let prod = wg.matmul_dense(&cols)?;
                out_img[g * opg * n_out..(g + 1) * opg * n_out].copy_from_slice(prod.as_slice());
            }
            if let Some(b) = bias {
                for (oc, bval) in b.iter().enumerate() {
                    for v in &mut out_img[oc * n_out..(oc + 1) * n_out] {
                        *v += bval;
                    }
                }
            }
            Ok(())
        })?;
    Ok(out)
}

/// Dense convolution weights pre-split into per-group GEMM bands.
///
/// [`conv2d_gemm`] re-slices and copies the group band out of the flat
/// weight matrix for every image of every call; for Caffenet's grouped
/// layers that is a fresh `O(weights)` allocation per image. Packing once,
/// on a layer's first forward, removes it from the steady state entirely.
#[derive(Debug, Clone)]
pub struct PackedConvWeights {
    bands: Vec<Matrix>,
}

impl PackedConvWeights {
    /// Split `weights` (`out_channels × in_per_group*kh*kw`) by group.
    pub fn pack(weights: &Matrix, params: &Conv2dParams) -> TensorResult<Self> {
        check_weights(params, weights)?;
        let opg = params.out_per_group();
        let col_rows = params.in_per_group() * params.kh * params.kw;
        let bands = (0..params.groups)
            .map(|g| {
                Matrix::from_vec(
                    opg,
                    col_rows,
                    weights.as_slice()[g * opg * col_rows..(g + 1) * opg * col_rows].to_vec(),
                )
            })
            .collect::<TensorResult<Vec<_>>>()?;
        Ok(Self { bands })
    }

    /// Number of groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.bands.len()
    }

    /// Weight band for group `g` (`out_per_group × in_per_group*kh*kw`).
    #[inline]
    pub fn band(&self, g: usize) -> &Matrix {
        &self.bands[g]
    }
}

/// Sparse convolution weights pre-split into per-group CSR bands.
///
/// Replaces [`conv2d_sparse`]'s per-call `to_dense()` + re-conversion:
/// the CSR is split by rows directly (index arithmetic only, done once).
#[derive(Debug, Clone)]
pub struct PackedSparseConvWeights {
    bands: Vec<CsrMatrix>,
}

impl PackedSparseConvWeights {
    /// Split CSR `weights` (`out_channels × in_per_group*kh*kw`) by group.
    pub fn pack(weights: &CsrMatrix, params: &Conv2dParams) -> TensorResult<Self> {
        params.validate()?;
        let col_rows = params.in_per_group() * params.kh * params.kw;
        if weights.shape() != (params.out_channels, col_rows) {
            return Err(ShapeError::new(format!(
                "conv pack: sparse weights {:?}, expected {:?}",
                weights.shape(),
                (params.out_channels, col_rows)
            )));
        }
        Ok(Self {
            bands: weights.split_rows(params.out_per_group())?,
        })
    }

    /// Number of groups.
    #[inline]
    pub fn groups(&self) -> usize {
        self.bands.len()
    }

    /// CSR weight band for group `g`.
    #[inline]
    pub fn band(&self, g: usize) -> &CsrMatrix {
        &self.bands[g]
    }
}

/// im2col+GEMM convolution with pre-packed weights and pooled scratch —
/// the zero-allocation steady-state path — with the bias add and an
/// optional ReLU fused into the GEMM store.
///
/// Numerically identical to [`conv2d_gemm`] (same kernels, same
/// accumulation order); differs only in where buffers come from: weight
/// bands are pre-split in `weights`, the `cols`/`prod` scratch matrices
/// come from `pool` (one workspace per rayon worker), and the output is
/// written into `out`, which is reshaped in place (reusing capacity).
///
/// The bias is applied through the kernel epilogue as one `f32` add per
/// element, and `relu` appends the `forward_into`-flavor ReLU, so the
/// output makes one round-trip through memory instead of up to three.
/// With `relu` set the result is bitwise identical to the call without
/// it followed by a standalone ReLU layer, on every bit-identical
/// kernel path.
pub fn conv2d_gemm_packed_fused(
    input: &Tensor4,
    weights: &PackedConvWeights,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    pool: &WorkspacePool,
    out: &mut Tensor4,
    relu: bool,
) -> TensorResult<()> {
    params.validate()?;
    check_input(params, input)?;
    check_bias(params, bias)?;
    if weights.groups() != params.groups {
        return Err(ShapeError::new(format!(
            "conv packed: {} weight bands, expected {} groups",
            weights.groups(),
            params.groups
        )));
    }
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    out.resize(n, params.out_channels, oh, ow);

    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    let col_rows = cpg * params.kh * params.kw;
    let n_out = oh * ow;
    let out_image_len = params.out_channels * n_out;
    let in_image_len = params.in_channels * h * w;

    // One relaxed load outside the parallel loop decides whether the
    // GEMM/im2col split is measured for this call.
    let timing = cap_obs::timing_enabled();

    // Pair output and input images by chunking both flat buffers — no
    // per-call Vec of image slices, keeping the steady state allocation-free.
    out.as_mut_slice()
        .par_chunks_mut(out_image_len.max(1))
        .zip(input.as_slice().par_chunks(in_image_len.max(1)))
        .try_for_each_init(
            || pool.checkout(),
            |ws, (out_img, in_img)| -> TensorResult<()> {
                // Ungrouped convs write GEMM output straight into the
                // output image, so the prod slot stays empty.
                let prod_shape = if params.groups == 1 {
                    (0, 0)
                } else {
                    (opg, n_out)
                };
                // The dense path unrolls straight into panel-packed
                // layout, so the row-major cols slot stays empty.
                let (_cols, packed, prod) = ws.conv_gemm_slots((0, 0), prod_shape);
                for g in 0..params.groups {
                    let in_slice = &in_img[g * cpg * h * w..(g + 1) * cpg * h * w];
                    // Fused unroll+pack: emit the GEMM's panel layout
                    // directly instead of writing a row-major column
                    // matrix and re-copying it panel-packed — one write
                    // pass over the activations instead of a write plus
                    // a full read+write (see `im2col_packed_prealloc`).
                    let t_col = split_clock(timing);
                    im2col_packed_prealloc(
                        in_slice,
                        cpg,
                        h,
                        w,
                        params.kh,
                        params.kw,
                        params.pad,
                        params.stride,
                        packed,
                    )?;
                    credit_ns(t_col, &cap_obs::metrics().im2col_time_ns);
                    let t_gemm = split_clock(timing);
                    let band = weights.band(g);
                    // Bias and ReLU ride the GEMM store: `bias[g*opg + r]`
                    // is the per-output-channel bias of GEMM row `r`, so
                    // the group's bias slice is a per-row epilogue.
                    let epi = Epilogue {
                        bias: bias.map(|b| EpiBias::PerRow(&b[g * opg..(g + 1) * opg])),
                        relu,
                    };
                    if params.groups == 1 {
                        gemm_packed_cols_fused(
                            band.as_slice(),
                            opg,
                            col_rows,
                            n_out,
                            packed.as_slice(),
                            out_img,
                            epi,
                        )?;
                    } else {
                        gemm_packed_cols_fused(
                            band.as_slice(),
                            opg,
                            col_rows,
                            n_out,
                            packed.as_slice(),
                            prod.as_mut_slice(),
                            epi,
                        )?;
                        let dst = &mut out_img[g * opg * n_out..(g + 1) * opg * n_out];
                        dst.copy_from_slice(prod.as_slice());
                    }
                    credit_ns(t_gemm, &cap_obs::metrics().gemm_time_ns);
                }
                Ok(())
            },
        )?;
    Ok(())
}

/// CSR-sparse convolution with pre-split group bands and pooled scratch,
/// with bias and an optional ReLU fused into the SpMM row store.
///
/// The zero-allocation counterpart of [`conv2d_sparse`]: no per-call
/// densify/re-sparsify, no per-image `cols`/`prod` allocation. Same
/// bitwise-identity contract for `relu` as [`conv2d_gemm_packed_fused`].
pub fn conv2d_sparse_packed_fused(
    input: &Tensor4,
    weights: &PackedSparseConvWeights,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    pool: &WorkspacePool,
    out: &mut Tensor4,
    relu: bool,
) -> TensorResult<()> {
    params.validate()?;
    check_input(params, input)?;
    check_bias(params, bias)?;
    if weights.groups() != params.groups {
        return Err(ShapeError::new(format!(
            "conv sparse packed: {} weight bands, expected {} groups",
            weights.groups(),
            params.groups
        )));
    }
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    out.resize(n, params.out_channels, oh, ow);

    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    let col_rows = cpg * params.kh * params.kw;
    let n_out = oh * ow;
    let out_image_len = params.out_channels * n_out;
    let in_image_len = params.in_channels * h * w;

    let timing = cap_obs::timing_enabled();

    // Chunk both flat buffers — no per-call Vec of image slices.
    out.as_mut_slice()
        .par_chunks_mut(out_image_len.max(1))
        .zip(input.as_slice().par_chunks(in_image_len.max(1)))
        .try_for_each_init(
            || pool.checkout(),
            |ws, (out_img, in_img)| -> TensorResult<()> {
                let (cols, prod) = ws.conv_slots((col_rows, n_out), (opg, n_out));
                for g in 0..params.groups {
                    let in_slice = &in_img[g * cpg * h * w..(g + 1) * cpg * h * w];
                    let t_col = split_clock(timing);
                    im2col_prealloc(
                        in_slice,
                        cpg,
                        h,
                        w,
                        params.kh,
                        params.kw,
                        params.pad,
                        params.stride,
                        cols,
                    )?;
                    credit_ns(t_col, &cap_obs::metrics().im2col_time_ns);
                    // Sparse×dense multiply is the GEMM of this path;
                    // bias/ReLU ride its row stores (CSR rows are this
                    // group's output channels, so the group bias slice
                    // is the per-row bias).
                    let t_gemm = split_clock(timing);
                    weights.band(g).matmul_dense_into_fused(
                        cols,
                        prod,
                        bias.map(|b| &b[g * opg..(g + 1) * opg]),
                        relu,
                    )?;
                    credit_ns(t_gemm, &cap_obs::metrics().gemm_time_ns);
                    out_img[g * opg * n_out..(g + 1) * opg * n_out]
                        .copy_from_slice(prod.as_slice());
                }
                Ok(())
            },
        )?;
    Ok(())
}

/// Direct (sliding-window) convolution — correctness oracle and the
/// baseline arm of the `conv_strategy` ablation bench.
pub fn conv2d_direct(
    input: &Tensor4,
    weights: &Matrix,
    bias: Option<&[f32]>,
    params: &Conv2dParams,
) -> TensorResult<Tensor4> {
    check_weights(params, weights)?;
    check_input(params, input)?;
    check_bias(params, bias)?;
    let (n, _c, h, w) = input.shape();
    let (oh, ow) = params.out_shape(h, w)?;
    let mut out = Tensor4::zeros(n, params.out_channels, oh, ow);
    let cpg = params.in_per_group();
    let opg = params.out_per_group();
    for ni in 0..n {
        for oc in 0..params.out_channels {
            let g = oc / opg;
            let wrow = weights.row(oc);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[oc]);
                    for icg in 0..cpg {
                        let ic = g * cpg + icg;
                        for ky in 0..params.kh {
                            let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                            if iy < 0 || iy as usize >= h {
                                continue;
                            }
                            for kx in 0..params.kw {
                                let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                                if ix < 0 || ix as usize >= w {
                                    continue;
                                }
                                let wv = wrow[(icg * params.kh + ky) * params.kw + kx];
                                acc += wv * input.get(ni, ic, iy as usize, ix as usize);
                            }
                        }
                    }
                    out.set(ni, oc, oy, ox, acc);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn det_input(n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
            (((ni * 7 + ci * 5 + hi * 3 + wi) % 11) as f32 - 5.0) / 5.0
        })
    }

    fn det_weights(params: &Conv2dParams, seed: usize) -> Matrix {
        Matrix::from_fn(
            params.out_channels,
            params.in_per_group() * params.kh * params.kw,
            |r, c| ((((r + seed) * 13 + c * 7) % 9) as f32 - 4.0) / 4.0,
        )
    }

    #[test]
    fn gemm_matches_direct_ungrouped() {
        let params = Conv2dParams::new(3, 8, 3, 1, 2);
        let input = det_input(2, 3, 9, 9);
        let weights = det_weights(&params, 1);
        let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let a = conv2d_gemm(&input, &weights, Some(&bias), &params).unwrap();
        let b = conv2d_direct(&input, &weights, Some(&bias), &params).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn gemm_matches_direct_grouped() {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let input = det_input(2, 4, 7, 7);
        let weights = det_weights(&params, 2);
        let a = conv2d_gemm(&input, &weights, None, &params).unwrap();
        let b = conv2d_direct(&input, &weights, None, &params).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-4);
    }

    #[test]
    fn sparse_matches_dense() {
        let params = Conv2dParams::grouped(4, 6, 3, 1, 1, 2);
        let input = det_input(3, 4, 6, 6);
        let mut weights = det_weights(&params, 3);
        // Zero out ~half the weights to make it genuinely sparse.
        for (i, v) in weights.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let csr = CsrMatrix::from_dense(&weights, 0.0);
        let bias = vec![0.5; 6];
        let dense_out = conv2d_gemm(&input, &weights, Some(&bias), &params).unwrap();
        let sparse_out = conv2d_sparse(&input, &csr, Some(&bias), &params).unwrap();
        assert!(dense_out.max_abs_diff(&sparse_out).unwrap() < 1e-4);
    }

    #[test]
    fn identity_1x1_conv() {
        // 1x1 conv with identity weight matrix passes channels through.
        let params = Conv2dParams::new(3, 3, 1, 0, 1);
        let input = det_input(1, 3, 4, 4);
        let weights = Matrix::identity(3);
        let out = conv2d_gemm(&input, &weights, None, &params).unwrap();
        assert!(out.max_abs_diff(&input).unwrap() < 1e-6);
    }

    #[test]
    fn bias_only_applied_per_channel() {
        let params = Conv2dParams::new(1, 2, 1, 0, 1);
        let input = Tensor4::zeros(1, 1, 2, 2);
        let weights = Matrix::zeros(2, 1);
        let bias = vec![1.5, -2.5];
        let out = conv2d_gemm(&input, &weights, Some(&bias), &params).unwrap();
        assert!(out.image(0)[..4].iter().all(|&v| v == 1.5));
        assert!(out.image(0)[4..].iter().all(|&v| v == -2.5));
    }

    #[test]
    fn validates_shapes() {
        let params = Conv2dParams::new(3, 8, 3, 1, 1);
        let input = det_input(1, 4, 6, 6); // wrong channels
        let weights = det_weights(&params, 0);
        assert!(conv2d_gemm(&input, &weights, None, &params).is_err());

        let input = det_input(1, 3, 6, 6);
        let bad_weights = Matrix::zeros(8, 26); // wrong cols
        assert!(conv2d_gemm(&input, &bad_weights, None, &params).is_err());
        assert!(conv2d_gemm(&input, &weights, Some(&[0.0; 7]), &params).is_err());
    }

    #[test]
    fn validates_groups() {
        let params = Conv2dParams::grouped(3, 8, 3, 1, 1, 2); // 3 % 2 != 0
        assert!(params.validate().is_err());
        let params = Conv2dParams::grouped(4, 8, 3, 1, 1, 0);
        assert!(params.validate().is_err());
    }

    #[test]
    fn macs_counts_caffenet_conv1() {
        // Caffenet conv1: 224x224x3 in, 96 filters 11x11, stride 4, pad 2 -> 55x55.
        let p = Conv2dParams::new(3, 96, 11, 2, 4);
        let macs = p.macs(224, 224).unwrap();
        assert_eq!(macs, 96 * 55 * 55 * 3 * 11 * 11);
    }

    proptest! {
        #[test]
        fn prop_gemm_matches_direct(
            c in 1usize..4, oc_half in 1usize..3, k in 1usize..4,
            pad in 0usize..2, stride in 1usize..3, h in 4usize..8,
        ) {
            let params = Conv2dParams::new(c, oc_half * 2, k, pad, stride);
            let input = det_input(1, c, h, h);
            let weights = det_weights(&params, 5);
            let a = conv2d_gemm(&input, &weights, None, &params).unwrap();
            let b = conv2d_direct(&input, &weights, None, &params).unwrap();
            prop_assert!(a.max_abs_diff(&b).unwrap() < 1e-3);
        }
    }
}
