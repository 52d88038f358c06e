//! im2col+GEMM vs direct sliding-window convolution — the Caffe-lowering
//! ablation (DESIGN.md §9).

use cap_tensor::{
    conv2d_direct, conv2d_gemm, conv2d_gemm_packed_fused, conv2d_sparse,
    conv2d_sparse_packed_fused, Conv2dParams, CsrMatrix, Matrix, PackedConvWeights,
    PackedSparseConvWeights, Tensor4, WorkspacePool,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_conv(c: &mut Criterion) {
    // A conv3-like layer at reduced channel count for bench runtime.
    let params = Conv2dParams::new(64, 96, 3, 1, 1);
    let input = Tensor4::from_fn(1, 64, 13, 13, |_, ci, h, w| {
        ((ci + h * 2 + w) % 11) as f32 / 11.0 - 0.5
    });
    let weights = Matrix::from_fn(96, 64 * 9, |r, cc| ((r * 7 + cc) % 9) as f32 / 9.0 - 0.4);
    let bias = vec![0.1_f32; 96];

    let mut group = c.benchmark_group("conv_13x13x64_to_96");
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| conv2d_gemm(&input, &weights, Some(&bias), &params).unwrap())
    });
    group.bench_function("direct", |b| {
        b.iter(|| conv2d_direct(&input, &weights, Some(&bias), &params).unwrap())
    });
    // Sparse at 70 % pruning.
    let mut sparse_w = weights.clone();
    for (i, v) in sparse_w.as_mut_slice().iter_mut().enumerate() {
        if i % 10 < 7 {
            *v = 0.0;
        }
    }
    let csr = CsrMatrix::from_dense(&sparse_w, 0.0);
    group.bench_function("sparse_csr_70pct", |b| {
        b.iter(|| conv2d_sparse(&input, &csr, Some(&bias), &params).unwrap())
    });
    // Steady-state variants: weights pre-split into per-group bands once
    // (a conv layer's weight form), im2col/GEMM scratch drawn from a
    // workspace pool, output tensor reused across calls.
    let packed = PackedConvWeights::pack(&weights, &params).unwrap();
    let pool = WorkspacePool::new();
    let mut out = Tensor4::zeros(0, 0, 0, 0);
    group.bench_function("im2col_gemm_packed", |b| {
        b.iter(|| {
            conv2d_gemm_packed_fused(
                &input,
                &packed,
                Some(&bias),
                &params,
                &pool,
                &mut out,
                false,
            )
            .unwrap()
        })
    });
    let packed_csr = PackedSparseConvWeights::pack(&csr, &params).unwrap();
    group.bench_function("sparse_csr_70pct_packed", |b| {
        b.iter(|| {
            conv2d_sparse_packed_fused(
                &input,
                &packed_csr,
                Some(&bias),
                &params,
                &pool,
                &mut out,
                false,
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conv
}
criterion_main!(benches);
