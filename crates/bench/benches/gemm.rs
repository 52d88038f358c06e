//! Dense vs CSR-sparse GEMM across sparsity levels — locates the
//! break-even point that justifies the sparse-Caffe substrate
//! (DESIGN.md §9 ablation).

use cap_tensor::{gemm, gemm_prepacked, CsrMatrix, Matrix, PackedB};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn weight_matrix(rows: usize, cols: usize, sparsity_pct: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = (r * 31 + c * 17) % 100;
        if h < sparsity_pct {
            0.0
        } else {
            (h as f32 - 50.0) / 50.0
        }
    })
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_256x1200_x_729");
    // Caffenet conv2-like dimensions: 256 filters, 1200 taps, 27x27 output.
    let activations = Matrix::from_fn(1200, 729, |r, q| ((r + q) % 13) as f32 / 13.0 - 0.5);
    for sparsity in [0usize, 30, 50, 70, 90] {
        let w = weight_matrix(256, 1200, sparsity);
        group.bench_with_input(BenchmarkId::new("dense", sparsity), &w, |b, w| {
            b.iter(|| gemm(w, &activations).unwrap())
        });
        let csr = CsrMatrix::from_dense(&w, 0.0);
        group.bench_with_input(BenchmarkId::new("sparse_csr", sparsity), &csr, |b, csr| {
            b.iter(|| csr.matmul_dense(&activations).unwrap())
        });
        // Pack-once/run-many: the B panels are packed outside the loop
        // (as an FC layer packs its transposed weights once)
        // and the output buffer is reused, so the steady state is
        // allocation-free.
        let packed = PackedB::pack(&activations);
        let mut out = Matrix::zeros(w.rows(), activations.cols());
        group.bench_with_input(BenchmarkId::new("dense_prepacked", sparsity), &w, |b, w| {
            b.iter(|| gemm_prepacked(w, &packed, &mut out).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm
}
criterion_main!(benches);
