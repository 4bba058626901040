//! Property tests pinning the packed, register-blocked matmul kernels to
//! the naive triple-loop reference — **bitwise**, not approximately.
//!
//! The blocked kernel (and its AVX2 tile) accumulates every output element
//! in ascending-`k` order with separate multiply and add, exactly like the
//! reference, so any shape — including tails that are not multiples of the
//! register tile, single rows/columns and empty operands — must reproduce
//! the reference bits. The fused epilogues (bias, bias+map, affine) must
//! likewise match their two-pass formulations bit for bit.
//!
//! Under Miri (which runs only the portable scalar path) the case count is
//! reduced to keep the interpreted suite fast; the shapes exercised stay
//! the same.

use deepoheat_linalg::Matrix;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

#[cfg(miri)]
const CASES: u32 = 4;
#[cfg(not(miri))]
const CASES: u32 = 96;

/// Dimensions that deliberately straddle the MR×NR = 4×8 register tile:
/// empty, degenerate (1), tile-aligned, off-by-one and multi-tile.
const DIMS: [usize; 8] = [0, 1, 3, 4, 8, 9, 19, 33];

/// Strategy: one entry of [`DIMS`].
fn dim() -> impl Strategy<Value = usize> {
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

/// Builds a `rows × cols` matrix from a seed, mixing ordinary magnitudes
/// with the bit-identity hazards: signed zeros and tiny values whose sums
/// underflow.
fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| match rng.gen_range(0u8..7) {
            0 => 0.0,
            1 => -0.0,
            2 => 1e-300,
            _ => rng.gen_range(-3.0..3.0),
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("sized by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn blocked_matmul_is_bitwise_equal_to_naive(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 1);
        let blocked = a.matmul(&b).unwrap();
        let naive = a.matmul_naive(&b).unwrap();
        prop_assert_eq!(blocked, naive);
    }

    #[test]
    fn transposed_matmul_is_bitwise_equal_to_naive_of_transpose(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let t = matrix(n, k, seed ^ 2);
        let fused = a.matmul_transposed(&t).unwrap();
        let reference = a.matmul_naive(&t.transpose()).unwrap();
        prop_assert_eq!(fused, reference);
    }

    #[test]
    fn transpose_matmul_is_bitwise_equal_to_naive_of_transpose(
        m in dim(), k in dim(), n in dim(), seed in 0u64..1 << 48
    ) {
        let a = matrix(k, m, seed);
        let b = matrix(k, n, seed ^ 3);
        let fused = a.transpose_matmul(&b).unwrap();
        let reference = a.transpose().matmul_naive(&b).unwrap();
        prop_assert_eq!(fused, reference);
    }

    #[test]
    fn bias_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in 1usize..=19, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 3);
        let bias = matrix(1, n, seed ^ 4);
        let fused = a.matmul_bias(&b, bias.as_slice()).unwrap();
        let two_pass = a.matmul(&b).unwrap().add_row_broadcast(&bias).unwrap();
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn bias_map_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in 1usize..=19, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed ^ 5);
        let bias = matrix(1, n, seed ^ 6);
        // A Swish-like map: nonlinear, uses the input twice.
        let f = |v: f64| v / (1.0 + (-v).exp());
        let fused = a.matmul_bias_map(&b, bias.as_slice(), f).unwrap();
        let two_pass = a.matmul(&b).unwrap().add_row_broadcast(&bias).unwrap().map(f);
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn affine_epilogue_is_bitwise_equal_to_two_pass(
        m in dim(), k in dim(), n in dim(),
        offset in -10.0f64..10.0, scale in 0.1f64..10.0, seed in 0u64..1 << 48
    ) {
        let a = matrix(m, k, seed);
        let t = matrix(n, k, seed ^ 7);
        let fused = a.matmul_transposed_affine(&t, offset, scale).unwrap();
        let two_pass = a.matmul_transposed(&t).unwrap().map(|v| offset + scale * v);
        prop_assert_eq!(fused, two_pass);
    }

    #[test]
    fn zero_times_nonfinite_propagates_ieee(
        m in 1usize..=6, n in 1usize..=6
    ) {
        // The old row kernel skipped k-steps where the A element was zero;
        // the packed kernel must not: 0 · ∞ = NaN per IEEE 754.
        let a = Matrix::zeros(m, 2);
        let mut b = Matrix::zeros(2, n);
        b[(0, 0)] = f64::INFINITY;
        let out = a.matmul(&b).unwrap();
        prop_assert!(out[(0, 0)].is_nan());
        prop_assert_eq!(a.matmul_naive(&b).unwrap()[(0, 0)].is_nan(), out[(0, 0)].is_nan());
    }
}

/// The fused trunk-combine kernel must be bit-identical across pool
/// widths: band boundaries derive from the problem size alone.
#[test]
#[cfg_attr(miri, ignore = "thread pools are too slow under the interpreter")]
fn fused_combine_is_bit_identical_across_pool_widths() {
    let a = Matrix::from_fn(130, 96, |r, c| ((r * 31 + c * 7) % 23) as f64 * 0.37 - 2.0);
    let t = Matrix::from_fn(201, 96, |r, c| ((r * 13 + c * 3) % 17) as f64 * 0.21 - 1.5);
    let serial = a.matmul_transposed_affine(&t, 298.15, 10.0).unwrap();
    assert_eq!(serial, a.matmul_transposed(&t).unwrap().map(|v| 298.15 + 10.0 * v));
    for threads in [1, 2, 4] {
        let pool = deepoheat_parallel::ThreadPool::new(threads);
        let under = pool.install(|| a.matmul_transposed_affine(&t, 298.15, 10.0)).unwrap();
        assert_eq!(serial, under, "threads = {threads}");
    }
}

/// `Xᵀ·dY` over more than one `KC` slab and more than one `MC` chunk,
/// taken from row blocks of a stacked operand, must match the transposed
/// copy's product bit for bit at every pool width.
#[test]
#[cfg_attr(miri, ignore = "thread pools are too slow under the interpreter")]
fn transpose_matmul_of_row_blocks_is_bit_identical_across_pool_widths() {
    let x = matrix(2 * 600, 70, 11);
    let dy = matrix(2 * 600, 37, 12);
    let (xb, dyb) = (x.row_block(600..1200).unwrap(), dy.row_block(600..1200).unwrap());
    let reference = xb.transpose().matmul(&dyb).unwrap();
    for threads in [1, 2, 4] {
        let pool = deepoheat_parallel::ThreadPool::new(threads);
        let under = pool.install(|| {
            let xv = x.row_block_view(600..1200).unwrap();
            xv.transpose_matmul(dy.row_block_view(600..1200).unwrap()).unwrap()
        });
        assert_eq!(reference, under, "threads = {threads}");
    }
}
