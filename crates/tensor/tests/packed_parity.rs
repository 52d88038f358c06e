//! Property-based parity suites for the zero-allocation steady-state
//! kernels: every packed/pooled variant must agree with the seed
//! implementation it replaces, across randomized shapes and contents.

use cap_tensor::{
    conv2d_gemm, conv2d_gemm_packed_fused, conv2d_sparse, conv2d_sparse_packed_fused, gemm,
    gemm_prealloc, gemm_prepacked, Conv2dParams, CsrMatrix, Matrix, PackedB, PackedConvWeights,
    PackedSparseConvWeights, Tensor4, WorkspacePool,
};
use proptest::prelude::*;

/// Deterministic pseudo-random fill that exercises positives, negatives
/// and exact zeros (zeros matter: they trigger the GEMM skip branch).
fn fill(seed: usize, zero_every: usize) -> impl Fn(usize) -> f32 {
    move |i: usize| {
        if zero_every > 0 && (i + seed).is_multiple_of(zero_every) {
            0.0
        } else {
            (((i * 31 + seed * 17) % 23) as f32 - 11.0) / 7.0
        }
    }
}

fn matrix(rows: usize, cols: usize, seed: usize, zero_every: usize) -> Matrix {
    let f = fill(seed, zero_every);
    Matrix::from_fn(rows, cols, |r, c| f(r * cols + c))
}

fn tensor(n: usize, c: usize, h: usize, w: usize, seed: usize) -> Tensor4 {
    let f = fill(seed, 5);
    Tensor4::from_fn(n, c, h, w, |ni, ci, hi, wi| {
        f(((ni * c + ci) * h + hi) * w + wi)
    })
}

proptest! {
    /// Panel-packed GEMM ≡ plain GEMM. Accumulation order is identical
    /// (kk-ascending per output element), so parity is near-bitwise; the
    /// tolerance only covers ±0.0 sign plus fused rounding differences.
    #[test]
    fn packed_gemm_matches_gemm(
        m in 1usize..24,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0usize..1000,
        zero_every in 0usize..4,
    ) {
        let a = matrix(m, k, seed, zero_every);
        let b = matrix(k, n, seed + 1, 0);
        let expect = gemm(&a, &b).unwrap();
        let packed = PackedB::pack(&b);
        let mut got = Matrix::zeros(m, n);
        gemm_prepacked(&a, &packed, &mut got).unwrap();
        prop_assert!(expect.max_abs_diff(&got).unwrap() <= 1e-6);
    }

    /// The dense-zero skip probe must not change results relative to a
    /// fully dense multiply of the same values.
    #[test]
    fn sparse_rows_do_not_change_gemm(
        m in 1usize..16,
        k in 1usize..32,
        n in 1usize..24,
        seed in 0usize..1000,
    ) {
        // Half the rows of A fully zeroed: mixes skip-branch rows and
        // dense-branch rows in one multiply.
        let mut a = matrix(m, k, seed, 0);
        for r in (0..m).step_by(2) {
            a.row_mut(r).fill(0.0);
        }
        let b = matrix(k, n, seed + 2, 0);
        let expect = gemm(&a, &b).unwrap();
        let mut got = Matrix::zeros(m, n);
        gemm_prealloc(&a, &b, &mut got).unwrap();
        prop_assert!(expect.max_abs_diff(&got).unwrap() == 0.0);
        for r in (0..m).step_by(2) {
            prop_assert!(got.row(r).iter().all(|&v| v == 0.0));
        }
    }

    /// Workspace-pooled packed convolution ≡ seed convolution, including
    /// grouped (AlexNet-style) geometry, on a reused output tensor.
    #[test]
    fn packed_conv_matches_seed_conv(
        n in 1usize..3,
        groups in 1usize..3,
        cpg in 1usize..3,
        opg in 1usize..3,
        hw in 3usize..8,
        kpad in 0usize..2,
        seed in 0usize..1000,
    ) {
        let (in_c, out_c) = (groups * cpg, groups * opg);
        let params = Conv2dParams::grouped(in_c, out_c, 3, kpad, 1, groups);
        let weights = matrix(out_c, cpg * 9, seed, 3);
        let bias: Vec<f32> = (0..out_c).map(|i| i as f32 * 0.25 - 0.5).collect();
        let input = tensor(n, in_c, hw, hw, seed + 3);

        let expect = conv2d_gemm(&input, &weights, Some(&bias), &params).unwrap();

        let packed = PackedConvWeights::pack(&weights, &params).unwrap();
        let pool = WorkspacePool::new();
        let mut got = Tensor4::zeros(0, 0, 0, 0);
        // Run twice into the same output: the second pass reuses every
        // buffer and must still agree.
        for _ in 0..2 {
            conv2d_gemm_packed_fused(&input, &packed, Some(&bias), &params, &pool, &mut got, false)
                .unwrap();
        }
        prop_assert_eq!(expect.shape(), got.shape());
        prop_assert!(expect.max_abs_diff(&got).unwrap() <= 1e-6);
    }

    /// Pre-split CSR convolution ≡ seed sparse convolution ≡ dense.
    #[test]
    fn packed_sparse_conv_matches_seed(
        groups in 1usize..3,
        cpg in 1usize..3,
        opg in 1usize..3,
        hw in 3usize..7,
        seed in 0usize..1000,
    ) {
        let (in_c, out_c) = (groups * cpg, groups * opg);
        let params = Conv2dParams::grouped(in_c, out_c, 3, 1, 1, groups);
        // Heavily pruned weights, as the sparse kernel would see.
        let weights = matrix(out_c, cpg * 9, seed, 2);
        let csr = CsrMatrix::from_dense(&weights, 0.0);
        let input = tensor(2, in_c, hw, hw, seed + 4);

        let expect = conv2d_sparse(&input, &csr, None, &params).unwrap();

        let packed = PackedSparseConvWeights::pack(&csr, &params).unwrap();
        let pool = WorkspacePool::new();
        let mut got = Tensor4::zeros(0, 0, 0, 0);
        for _ in 0..2 {
            conv2d_sparse_packed_fused(&input, &packed, None, &params, &pool, &mut got, false)
                .unwrap();
        }
        prop_assert!(expect.max_abs_diff(&got).unwrap() <= 1e-6);

        let dense = conv2d_gemm(&input, &weights, None, &params).unwrap();
        prop_assert!(dense.max_abs_diff(&got).unwrap() <= 1e-4);
    }

    /// A workspace checked out of a pool carries stale contents from
    /// earlier, differently-shaped work; results must not depend on them.
    #[test]
    fn workspace_reuse_is_stateless(
        m1 in 1usize..12, k1 in 1usize..12, n1 in 1usize..12,
        m2 in 1usize..12, k2 in 1usize..12, n2 in 1usize..12,
        seed in 0usize..1000,
    ) {
        let pool = WorkspacePool::new();
        // Dirty the pool with a first multiply of unrelated shape.
        {
            let mut ws = pool.checkout();
            let (cols, prod) = ws.conv_slots((k1, n1), (m1, n1));
            let f = fill(seed, 0);
            for (i, v) in cols.as_mut_slice().iter_mut().enumerate() { *v = f(i); }
            let a = matrix(m1, k1, seed + 5, 0);
            gemm_prealloc(&a, cols, prod).unwrap();
        }
        // Second checkout must produce results identical to fresh buffers.
        let a = matrix(m2, k2, seed + 6, 3);
        let b = matrix(k2, n2, seed + 7, 0);
        let expect = gemm(&a, &b).unwrap();
        let mut ws = pool.checkout();
        let (cols, prod) = ws.conv_slots((k2, n2), (m2, n2));
        cols.as_mut_slice().copy_from_slice(b.as_slice());
        gemm_prealloc(&a, cols, prod).unwrap();
        prop_assert!(expect.max_abs_diff(prod).unwrap() == 0.0);
    }
}
