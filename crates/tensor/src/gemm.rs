//! Blocked, rayon-parallel dense GEMM.
//!
//! `C = A * B` with `A: m×k`, `B: k×n`, `C: m×n`. The kernel splits `C`
//! into row bands that are computed in parallel (each output row is owned
//! by exactly one task, so the result is deterministic), and uses a
//! k-blocked inner loop with a column-contiguous accumulation over `B`
//! rows, which vectorizes well.

use crate::dense::Matrix;
use crate::error::{ShapeError, TensorResult};
use crate::kernels;
use crate::kernels::{EpiBias, Epilogue, PANEL};
use rayon::prelude::*;

/// Row-band size for parallel splitting. One band is one rayon task.
const ROW_BAND: usize = 32;

/// Columns per parallel chunk on the batch-1 (`m == 1`) GEMV route. A
/// multiple of `PANEL` so chunk boundaries align with packed panels;
/// 32 panels ≈ one L1-resident output stripe per task.
const GEMV_COL_CHUNK: usize = 32 * PANEL;

/// Block size along the shared `k` dimension (cache blocking).
const K_BLOCK: usize = 256;

/// Minimum zero fraction in an `A` row block before the zero-skip branch
/// pays for itself (1/8 = 12.5%; below that the branch just stalls the
/// pipeline on dense data).
const SKIP_NUMER: usize = 1;
const SKIP_DENOM: usize = 8;

/// Multiply two dense matrices, returning a freshly allocated result.
pub fn gemm(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_prealloc(a, b, &mut c)?;
    Ok(c)
}

/// Multiply two dense matrices into a preallocated output.
///
/// `c` must already have shape `(a.rows, b.cols)`; its prior contents are
/// overwritten. Reusing `c` across calls avoids allocator traffic in hot
/// inference loops.
pub fn gemm_prealloc(a: &Matrix, b: &Matrix, c: &mut Matrix) -> TensorResult<()> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(ShapeError::new(format!(
            "gemm: inner dims {}x{} * {}x{}",
            m, ka, kb, n
        )));
    }
    if c.shape() != (m, n) {
        return Err(ShapeError::new(format!(
            "gemm: output {:?}, expected {:?}",
            c.shape(),
            (m, n)
        )));
    }
    let k = ka;
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let c_data = c.as_mut_slice();
    // Resolve the kernel path once, outside the parallel loop, and pass
    // it by value into the band tasks (worker threads must not re-read
    // process-global dispatch state mid-operation).
    let path = kernels::selected();

    // Parallelize over disjoint row bands of C.
    c_data
        .par_chunks_mut(ROW_BAND * n)
        .enumerate()
        .for_each(|(band, c_band)| {
            let row0 = band * ROW_BAND;
            let rows_here = c_band.len() / n.max(1);
            c_band.fill(0.0);
            let mut k0 = 0;
            while k0 < k {
                let k1 = (k0 + K_BLOCK).min(k);
                for local_r in 0..rows_here {
                    let r = row0 + local_r;
                    let a_row = &a_data[r * k..(r + 1) * k];
                    let c_row = &mut c_band[local_r * n..(local_r + 1) * n];
                    let a_blk = &a_row[k0..k1];
                    // Cheap density probe: O(k_block) against an inner loop
                    // of O(k_block * n). Only pay the per-element zero-skip
                    // branch when this row block actually carries zeros
                    // (pruned weights); dense rows take the branch-free
                    // loop, which the compiler vectorizes cleanly.
                    let zeros = a_blk.iter().filter(|&&v| v == 0.0).count();
                    if zeros * SKIP_DENOM >= a_blk.len() * SKIP_NUMER {
                        for (kk, &aik) in a_blk.iter().enumerate() {
                            if aik == 0.0 {
                                continue; // skip zero weights: sparsity win
                            }
                            let b_row = &b_data[(k0 + kk) * n..(k0 + kk + 1) * n];
                            kernels::axpy_with(path, c_row, aik, b_row);
                        }
                    } else {
                        for (kk, &aik) in a_blk.iter().enumerate() {
                            let b_row = &b_data[(k0 + kk) * n..(k0 + kk + 1) * n];
                            kernels::axpy_with(path, c_row, aik, b_row);
                        }
                    }
                }
                k0 = k1;
            }
        });
    Ok(())
}

/// `B` pre-packed into column panels for repeated multiplication.
///
/// When one weight matrix multiplies many activation panels (every
/// steady-state inference loop), the row-major walk over `B` in
/// [`gemm_prealloc`] touches `n`-strided cache lines per `k` step. Packing
/// `B` once into `PANEL`-column blocks — each stored `k × PANEL`
/// contiguous, tail zero-padded — turns the inner loop into a fixed-width
/// register-blocked accumulation over a linear stream.
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Panel-major storage: panel `p` occupies
    /// `data[p*k*PANEL .. (p+1)*k*PANEL]`, row-major `k × PANEL`.
    data: Vec<f32>,
}

impl PackedB {
    /// Pack a `k × n` matrix.
    pub fn pack(b: &Matrix) -> Self {
        let (k, n) = b.shape();
        let panels = n.div_ceil(PANEL);
        let mut data = vec![0.0f32; panels * k * PANEL];
        pack_panels(b.as_slice(), k, n, &mut data);
        Self { k, n, data }
    }

    /// Pack the transpose of an `n × k` matrix — the `k × n` matrix
    /// `btᵀ` — without materializing the transpose: the fully-connected
    /// layer packs its `Wᵀ` straight from `W`. Same layout, so the same
    /// results, as `PackedB::pack(&bt.transpose())`.
    pub fn pack_transposed(bt: &Matrix) -> Self {
        let (n, k) = bt.shape();
        let panels = n.div_ceil(PANEL);
        let mut data = vec![0.0f32; panels * k * PANEL];
        for c in 0..n {
            let base = (c / PANEL) * k * PANEL + c % PANEL;
            for (kk, &v) in bt.row(c).iter().enumerate() {
                data[base + kk * PANEL] = v;
            }
        }
        Self { k, n, data }
    }

    /// Logical `(k, n)` shape of the packed matrix.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }
}

/// Copy a row-major `k × n` slice into `PANEL`-column panel layout.
fn pack_panels(b_data: &[f32], k: usize, n: usize, dst: &mut [f32]) {
    let panels = n.div_ceil(PANEL);
    for p in 0..panels {
        let c0 = p * PANEL;
        let width = PANEL.min(n - c0);
        let base = p * k * PANEL;
        for kk in 0..k {
            let src = &b_data[kk * n + c0..kk * n + c0 + width];
            dst[base + kk * PANEL..base + kk * PANEL + width].copy_from_slice(src);
        }
    }
}

/// Pack a row-major `k × n` slice into panel layout inside a reusable
/// scratch matrix (resized in place, capacity kept across calls).
///
/// This is the per-call sibling of [`PackedB::pack`] for `B` operands
/// that change every call — e.g. a convolution's im2col column matrix —
/// where the O(k·n) copy is amortized against the O(m·k·n) multiply
/// that follows via [`gemm_packed_cols_fused`].
pub fn pack_b_slice_into(b_data: &[f32], k: usize, n: usize, dst: &mut Matrix) {
    let panels = n.div_ceil(PANEL);
    dst.resize(panels.max(1), k * PANEL);
    if panels > 0 {
        pack_panels(b_data, k, n, dst.as_mut_slice());
    }
}

/// Multiply `A` by a pre-packed `B` into a preallocated output.
///
/// Semantically identical to [`gemm_prealloc`] (same `kk`-ascending
/// accumulation order per output element), but reads `B` as contiguous
/// panels. Use when the same `B` is multiplied many times — the packing
/// cost is amortized across calls.
///
/// ```
/// use cap_tensor::{gemm, gemm_prepacked, Matrix, PackedB};
///
/// let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
/// let b = Matrix::from_fn(4, 5, |r, c| (r as f32 - c as f32) * 0.5);
/// let packed = PackedB::pack(&b); // once, up front
///
/// let mut c = Matrix::zeros(3, 5);
/// gemm_prepacked(&a, &packed, &mut c).unwrap(); // many times
///
/// // Bit-exact against the unpacked kernel, not merely close:
/// assert_eq!(c.as_slice(), gemm(&a, &b).unwrap().as_slice());
/// ```
pub fn gemm_prepacked(a: &Matrix, b: &PackedB, c: &mut Matrix) -> TensorResult<()> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: inner dims {}x{} * {}x{}",
            m, ka, kb, n
        )));
    }
    if c.shape() != (m, n) {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: output {:?}, expected {:?}",
            c.shape(),
            (m, n)
        )));
    }
    gemm_prepacked_slice_fused(a.as_slice(), m, b, c.as_mut_slice(), Epilogue::NONE)
}

/// GEMM against a `B` packed by [`pack_b_slice_into`], with a fused
/// [`Epilogue`] (bias/ReLU folded into the store — see
/// [`crate::kernels::Epilogue`] for the bitwise contract;
/// [`Epilogue::NONE`] is the plain product).
///
/// `a_data` is `m × k` row-major, `packed_b` holds `n.div_ceil(PANEL)`
/// panels of `k × PANEL`, `c_data` is `m × n` row-major. Identical
/// accumulation order to [`gemm_prealloc`], so results are bit-equal.
/// The convolution layers use this to fuse their per-channel bias and a
/// following ReLU into the GEMM itself.
pub fn gemm_packed_cols_fused(
    a_data: &[f32],
    m: usize,
    k: usize,
    n: usize,
    packed_b: &[f32],
    c_data: &mut [f32],
    epi: Epilogue<'_>,
) -> TensorResult<()> {
    if a_data.len() != m * k {
        return Err(ShapeError::new(format!(
            "gemm_packed_cols: A length {} != {}x{}",
            a_data.len(),
            m,
            k
        )));
    }
    if c_data.len() != m * n {
        return Err(ShapeError::new(format!(
            "gemm_packed_cols: C length {} != {}x{}",
            c_data.len(),
            m,
            n
        )));
    }
    if packed_b.len() < n.div_ceil(PANEL) * k * PANEL {
        return Err(ShapeError::new(format!(
            "gemm_packed_cols: packed B length {} < {} panels of {}x{}",
            packed_b.len(),
            n.div_ceil(PANEL),
            k,
            PANEL
        )));
    }
    gemm_packed_core_fused(a_data, k, n, packed_b, c_data, epi);
    Ok(())
}

/// [`gemm_prepacked`] over raw row-major slices, with a fused
/// [`Epilogue`] ([`Epilogue::NONE`] is the plain product).
///
/// `a` is `m × b.k` row-major, `c` is `m × b.n` row-major. Lets callers
/// whose data lives in other containers (e.g. an NCHW `Tensor4` whose
/// flattened images are already row-major feature rows) multiply without
/// copying into a `Matrix` first. The fully-connected layer's route for
/// folding its per-output-column bias and a following ReLU into the
/// GEMM/GEMV store.
pub fn gemm_prepacked_slice_fused(
    a_data: &[f32],
    m: usize,
    b: &PackedB,
    c_data: &mut [f32],
    epi: Epilogue<'_>,
) -> TensorResult<()> {
    let (k, n) = b.shape();
    if a_data.len() != m * k {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: A length {} != {}x{}",
            a_data.len(),
            m,
            k
        )));
    }
    if c_data.len() != m * n {
        return Err(ShapeError::new(format!(
            "gemm_prepacked: C length {} != {}x{}",
            c_data.len(),
            m,
            n
        )));
    }
    gemm_packed_core_fused(a_data, k, n, &b.data, c_data, epi);
    Ok(())
}

/// Shared band loop for [`gemm_prepacked_slice_fused`] /
/// [`gemm_packed_cols_fused`]: `b_data` is panel-packed, lengths already
/// validated by callers. The epilogue is threaded through to the
/// microkernels (a no-op epilogue dispatches to the plain kernels).
///
/// The per-band microkernel lives in [`crate::kernels`]
/// (`gemm_packed_band`): register-blocked `ROW_BLOCK × PANEL`
/// accumulation in ascending-`kk` order on every dispatch path, so
/// results are bit-identical across scalar and (non-FMA) SIMD backends.
///
/// `m == 1` — the batch-1 inference shape — routes to the dedicated
/// GEMV kernel instead of a degenerate one-row band: row bands cannot
/// parallelize a single row, so the *columns* are split into
/// panel-aligned chunks ([`GEMV_COL_CHUNK`]) that stream disjoint
/// stripes of the packed `B` concurrently. Per output element the
/// accumulation order is unchanged (each element's sum only ever walks
/// its own panel in ascending `kk`), so the routing is bitwise
/// invisible next to the band path.
fn gemm_packed_core_fused(
    a_data: &[f32],
    k: usize,
    n: usize,
    b_data: &[f32],
    c_data: &mut [f32],
    epi: Epilogue<'_>,
) {
    // Resolve the kernel path once, outside the parallel loop, and pass
    // it by value into the band tasks (worker threads must not re-read
    // process-global dispatch state mid-operation).
    let path = kernels::selected();
    if n > 0 && c_data.len() == n {
        // m == 1: matvec. Validate the epilogue against the *full*
        // width up front so a short bias panics here, not per-chunk.
        epi.check(1, n);
        c_data
            .par_chunks_mut(GEMV_COL_CHUNK)
            .enumerate()
            .for_each(|(chunk, c_chunk)| {
                let c0 = chunk * GEMV_COL_CHUNK;
                // Chunks are panel-aligned, so the packed panels for
                // columns [c0, c0 + len) start at panel c0/PANEL.
                let b_sub = &b_data[(c0 / PANEL) * k * PANEL..];
                let sub_epi = Epilogue {
                    bias: epi.bias.map(|b| match b {
                        EpiBias::PerRow(rb) => EpiBias::PerRow(rb),
                        // The kernel indexes a per-column bias by local
                        // column, so shift its window to this chunk.
                        EpiBias::PerCol(cb) => EpiBias::PerCol(&cb[c0..]),
                    }),
                    relu: epi.relu,
                };
                kernels::gemv_packed_fused_with(
                    path,
                    a_data,
                    c_chunk.len(),
                    b_sub,
                    c_chunk,
                    sub_epi,
                );
            });
        return;
    }
    c_data
        .par_chunks_mut((ROW_BAND * n).max(1))
        .enumerate()
        .for_each(|(band, c_band)| {
            kernels::gemm_packed_band_fused_with(
                path,
                a_data,
                k,
                n,
                b_data,
                c_band,
                band * ROW_BAND,
                epi,
            );
        });
}

/// Naive triple-loop GEMM used as a correctness oracle in tests and as the
/// baseline in the `conv_strategy` ablation bench.
pub fn gemm_naive(a: &Matrix, b: &Matrix) -> TensorResult<Matrix> {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    if ka != kb {
        return Err(ShapeError::new(format!(
            "gemm_naive: inner dims {}x{} * {}x{}",
            m, ka, kb, n
        )));
    }
    let mut c = Matrix::zeros(m, n);
    for r in 0..m {
        for kk in 0..ka {
            let aik = a.get(r, kk);
            for cc in 0..n {
                let v = c.get(r, cc) + aik * b.get(kk, cc);
                c.set(r, cc, v);
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Simple deterministic fill; values small enough to avoid f32 blowup.
        Matrix::from_fn(rows, cols, |r, c| {
            let h = r
                .wrapping_mul(31)
                .wrapping_add(c.wrapping_mul(17))
                .wrapping_add(seed as usize);
            ((h % 13) as f32 - 6.0) / 6.0
        })
    }

    #[test]
    fn pack_transposed_matches_packing_the_transpose() {
        for (n, k) in [(1, 1), (5, 3), (8, 7), (17, 4), (3, 0), (0, 4)] {
            let bt = mat(n, k, 9);
            let (a, b) = (
                PackedB::pack_transposed(&bt),
                PackedB::pack(&bt.transpose()),
            );
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.data, b.data, "n = {n}, k = {k}");
        }
    }

    #[test]
    fn identity_left() {
        let b = mat(4, 5, 1);
        let i = Matrix::identity(4);
        let c = gemm(&i, &b).unwrap();
        assert!(c.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn identity_right() {
        let a = mat(4, 5, 2);
        let i = Matrix::identity(5);
        let c = gemm(&a, &i).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-6);
    }

    #[test]
    fn matches_naive_rectangular() {
        let a = mat(37, 19, 3);
        let b = mat(19, 53, 4);
        let fast = gemm(&a, &b).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
    }

    #[test]
    fn matches_naive_large_enough_for_multiple_bands() {
        let a = mat(100, 70, 5);
        let b = mat(70, 40, 6);
        let fast = gemm(&a, &b).unwrap();
        let slow = gemm_naive(&a, &b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-3);
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(&a, &b).is_err());
    }

    #[test]
    fn prealloc_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(2, 3);
        assert!(gemm_prealloc(&a, &b, &mut c).is_err());
    }

    #[test]
    fn prealloc_overwrites_stale_contents() {
        let a = Matrix::identity(3);
        let b = mat(3, 3, 7);
        let mut c = Matrix::full(3, 3, 99.0);
        gemm_prealloc(&a, &b, &mut c).unwrap();
        assert!(c.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn batch1_gemv_route_is_bitwise_equal_to_band_path() {
        // m == 1 routes through the chunked GEMV kernel; outputs must be
        // bit-equal to the generic row-band path (and hence to gemm()).
        for n in [1usize, 7, 8, 63, 64, 257, GEMV_COL_CHUNK + 5] {
            let a = mat(1, 40, 11);
            let b = mat(40, n, 12);
            let packed = PackedB::pack(&b);
            let mut c = Matrix::zeros(1, n);
            gemm_prepacked(&a, &packed, &mut c).unwrap();
            let oracle = gemm(&a, &b).unwrap();
            let got: Vec<u32> = c.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = oracle.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_passes_bitwise() {
        // Fused bias+ReLU must equal plain GEMM followed by separate
        // bias-add and ReLU passes, bit for bit, for both m == 1 (GEMV
        // route) and a multi-band m.
        for (m, n) in [(1usize, 300usize), (37, 53)] {
            let k = 29;
            let a = mat(m, k, 21);
            let b = mat(k, n, 22);
            let bias = mat(1, n, 23);
            let packed = PackedB::pack(&b);

            let mut unfused = Matrix::zeros(m, n);
            gemm_prepacked(&a, &packed, &mut unfused).unwrap();
            for r in 0..m {
                for c in 0..n {
                    let v = unfused.get(r, c) + bias.get(0, c);
                    unfused.set(r, c, if v > 0.0 { v } else { 0.0 });
                }
            }

            let mut fused = Matrix::zeros(m, n);
            let epi = Epilogue {
                bias: Some(EpiBias::PerCol(bias.as_slice())),
                relu: true,
            };
            gemm_prepacked_slice_fused(a.as_slice(), m, &packed, fused.as_mut_slice(), epi)
                .unwrap();

            let got: Vec<u32> = fused.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = unfused.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "m = {m}, n = {n}");
        }
    }

    #[test]
    fn zero_sized_dims() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 4));

        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 4);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 4));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }

    proptest! {
        #[test]
        fn prop_matches_naive(m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
            let a = mat(m, k, seed);
            let b = mat(k, n, seed.wrapping_add(1));
            let fast = gemm(&a, &b).unwrap();
            let slow = gemm_naive(&a, &b).unwrap();
            prop_assert!(fast.max_abs_diff(&slow).unwrap() < 1e-4);
        }

        #[test]
        fn prop_distributes_over_addition(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..500) {
            // A*(B1+B2) == A*B1 + A*B2
            let a = mat(m, k, seed);
            let b1 = mat(k, n, seed.wrapping_add(10));
            let b2 = mat(k, n, seed.wrapping_add(20));
            let mut bsum = b1.clone();
            bsum.axpy(1.0, &b2).unwrap();
            let lhs = gemm(&a, &bsum).unwrap();
            let mut rhs = gemm(&a, &b1).unwrap();
            rhs.axpy(1.0, &gemm(&a, &b2).unwrap()).unwrap();
            prop_assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-3);
        }
    }
}
