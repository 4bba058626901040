//! Cache-correctness contract of the serving engine:
//!
//! * a warm (cached) evaluation is bit-identical to the cold evaluation
//!   that populated the cache, and to the model's unbatched path;
//! * the LRU eviction sequence is a pure function of the request
//!   sequence — replaying the requests reproduces hits, misses, and
//!   evictions exactly;
//! * batched serving is bit-identical across worker-pool widths and
//!   trunk-chunk sizes;
//! * the trunk-basis slot serves a repeated mesh from its resident `Φ`
//!   bit-identically to the cold path, misses on any bit or shape
//!   difference in the coordinates, and leaves `F32` engines unchanged.

#![deny(unsafe_code)]

use deepoheat::{DeepOHeat, DeepOHeatConfig, DEFAULT_TRUNK_CHUNK};
use deepoheat_linalg::Matrix;
use deepoheat_parallel::ThreadPool;
use deepoheat_serve::{
    CacheKey, CacheStats, EmbeddingCache, FrontendOptions, InferenceEngine, Precision,
    ServeFrontend, ServeOptions,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

fn model() -> DeepOHeat {
    let cfg = DeepOHeatConfig::single_branch(9, &[16, 16], &[16, 16], 12)
        .with_fourier(8, 1.0)
        .with_output_transform(300.0, 50.0);
    let mut rng = StdRng::seed_from_u64(11);
    DeepOHeat::new(&cfg, &mut rng).expect("config is valid")
}

fn design(rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(1, 9, |_, _| rng.gen_range(0.0..1.0))
}

fn queries(n: usize) -> Matrix {
    Matrix::from_fn(n, 3, |i, j| {
        let t = i as f64 / n as f64;
        (t + j as f64 * 0.37).sin() * 0.5 + 0.5
    })
}

#[test]
fn warm_hit_is_bit_identical_to_cold_eval() {
    let m = model();
    let input = design(&mut StdRng::seed_from_u64(1));
    let coords = queries(257);
    let reference = m.predict(&[&input], &coords).expect("unbatched reference");

    let mut engine = InferenceEngine::new(
        m,
        ServeOptions { cache_capacity: 4, trunk_chunk: 32, ..ServeOptions::default() },
    )
    .expect("valid options");
    let cold = engine.predict(&[&input], &coords).expect("cold eval");
    assert_eq!(engine.cache_stats().misses, 1);

    let warm = engine.predict(&[&input], &coords).expect("warm eval");
    assert_eq!(engine.cache_stats().hits, 1);

    assert_eq!(cold.as_slice(), reference.as_slice(), "cold batched == unbatched, bitwise");
    assert_eq!(warm.as_slice(), cold.as_slice(), "warm cache hit == cold eval, bitwise");
}

#[test]
fn eviction_sequence_is_a_pure_function_of_requests() {
    // Drive two identical engines through the same 40-request sequence of
    // 7 designs against a 3-entry cache and demand identical counters,
    // identical residency, and identical recency order at every step.
    let mut rng = StdRng::seed_from_u64(2);
    let designs: Vec<Matrix> = (0..7).map(|_| design(&mut rng)).collect();
    let sequence: Vec<usize> = (0..40).map(|i| (i * 5 + i / 3) % designs.len()).collect();
    let coords = queries(16);

    let opts = ServeOptions { cache_capacity: 3, trunk_chunk: 8, ..ServeOptions::default() };
    let mut a = InferenceEngine::new(model(), opts.clone()).expect("valid options");
    let mut b = InferenceEngine::new(model(), opts).expect("valid options");

    for &idx in &sequence {
        let input = &designs[idx];
        let out_a = a.predict(&[input], &coords).expect("engine a");
        let out_b = b.predict(&[input], &coords).expect("engine b");
        assert_eq!(out_a.as_slice(), out_b.as_slice());
        assert_eq!(a.cache_stats(), b.cache_stats(), "counters diverged");
        assert_eq!(a.cache_len(), b.cache_len());
    }
    let stats = a.cache_stats();
    assert!(stats.evictions > 0, "sequence must exercise eviction");
    assert_eq!(stats.hits + stats.misses, sequence.len() as u64);
}

#[test]
fn raw_cache_replay_reproduces_recency_order() {
    // Same property at the EmbeddingCache level, checking the exact
    // LRU order (not just counters) after a replay.
    let m = model();
    let keys: Vec<(CacheKey, Matrix)> = (0..5)
        .map(|i| {
            let input = Matrix::filled(1, 9, 0.1 * (i as f64 + 1.0));
            (CacheKey::of(&[&input]), input)
        })
        .collect();

    let run = || {
        let mut cache = EmbeddingCache::new(2);
        for (key, input) in &keys {
            if cache.get(key).is_none() {
                let emb = m.encode_branches(&[input]).expect("encode");
                cache.insert(key.clone(), std::sync::Arc::new(emb));
            }
        }
        // Touch the oldest resident to rotate the order.
        let order: Vec<CacheKey> = cache.keys_by_recency().into_iter().cloned().collect();
        if let Some(first) = order.first() {
            let _ = cache.get(first);
        }
        (cache.stats(), cache.keys_by_recency().iter().map(|k| k.hash()).collect::<Vec<u64>>())
    };

    let (stats1, order1) = run();
    let (stats2, order2) = run();
    assert_eq!(stats1, stats2);
    assert_eq!(order1, order2);
    assert_eq!(stats1.evictions, 3, "5 inserts into capacity 2");
}

#[test]
fn serving_is_bit_identical_across_pool_widths_and_chunk_sizes() {
    let input = design(&mut StdRng::seed_from_u64(3));
    let coords = queries(301);
    let reference = {
        let m = model();
        m.predict(&[&input], &coords).expect("reference")
    };

    for threads in [1usize, 2, 4, 8] {
        for chunk in [1usize, 13, 64, 1024] {
            let pool = ThreadPool::new(threads);
            let out = pool.install(|| {
                let mut engine = InferenceEngine::new(
                    model(),
                    ServeOptions {
                        cache_capacity: 2,
                        trunk_chunk: chunk,
                        ..ServeOptions::default()
                    },
                )
                .expect("valid options");
                // Twice: cover both the cold and the cached path under
                // this pool width.
                let cold = engine.predict(&[&input], &coords).expect("cold");
                let warm = engine.predict(&[&input], &coords).expect("warm");
                assert_eq!(cold.as_slice(), warm.as_slice());
                cold
            });
            assert_eq!(
                out.as_slice(),
                reference.as_slice(),
                "threads={threads} chunk={chunk} must be bit-identical to the serial reference"
            );
        }
    }
}

fn basis_stats(hits: u64, misses: u64, evictions: u64) -> CacheStats {
    CacheStats { hits, misses, evictions }
}

#[test]
fn warm_basis_equals_cold_and_model_predict_at_any_pool_width() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(4);
    let designs: Vec<Matrix> = (0..5).map(|_| design(&mut rng)).collect();
    // Several DEFAULT_TRUNK_CHUNK blocks plus a ragged tail, so both the
    // fused path and the basis fill dispatch more than one chunk.
    let coords = queries(2 * DEFAULT_TRUNK_CHUNK + 45);
    let expected: Vec<Matrix> =
        designs.iter().map(|d| m.predict(&[d], &coords).expect("reference")).collect();

    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(threads);
        pool.install(|| {
            let mut engine =
                InferenceEngine::new(m.clone(), ServeOptions::default()).expect("valid options");
            // Design 0 records the mesh (cold), design 1 builds Φ, the
            // rest are served from it.
            for (d, want) in designs.iter().zip(&expected) {
                let got = engine.predict(&[d], &coords).expect("predict");
                assert_eq!(got.as_slice(), want.as_slice(), "threads = {threads}");
            }
            assert_eq!(engine.basis_stats(), basis_stats(3, 2, 0), "threads = {threads}");
        });
    }
}

#[test]
fn coordinates_differing_in_one_bit_or_in_shape_miss() {
    let m = model();
    let input = design(&mut StdRng::seed_from_u64(5));
    let mut coords = queries(40);
    coords[(0, 0)] = 0.0;

    let mut next_float = coords.clone();
    next_float[(3, 1)] = f64::from_bits(next_float[(3, 1)].to_bits() + 1);
    let mut negative_zero = coords.clone();
    negative_zero[(0, 0)] = -0.0;
    let shorter = coords.row_block(0..39).expect("prefix");
    let empty = Matrix::zeros(0, 3);

    let mut engine = InferenceEngine::new(m.clone(), ServeOptions::default()).expect("valid");
    for variant in [&next_float, &negative_zero, &shorter, &empty] {
        // Warm the basis on `coords`: record, fill, hit.
        for _ in 0..3 {
            let got = engine.predict(&[&input], &coords).expect("warm");
            let want = m.predict(&[&input], &coords).expect("reference");
            assert_eq!(got.as_slice(), want.as_slice());
        }
        let before = engine.basis_stats();
        let got = engine.predict(&[&input], variant).expect("variant");
        let want = m.predict(&[&input], variant).expect("variant reference");
        assert_eq!(got.shape(), want.shape());
        assert_eq!(got.as_slice(), want.as_slice());
        let after = engine.basis_stats();
        assert_eq!(after.hits, before.hits, "a differing coordinate set must not hit");
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.evictions, before.evictions + 1, "the resident Φ is dropped");
    }
    // The empty set is itself a mesh the basis can hold: the slot already
    // records it, so the next call fills and the one after hits.
    for _ in 0..2 {
        let got = engine.predict(&[&input], &empty).expect("empty");
        assert_eq!(got.shape(), (1, 0));
    }
    // Per variant: record + fill misses, one hit, the variant's miss.
    assert_eq!(engine.basis_stats(), basis_stats(4 + 1, 4 * 3 + 1, 4));
}

#[test]
fn alternating_meshes_stay_bit_correct() {
    let m = model();
    let mut rng = StdRng::seed_from_u64(6);
    let meshes = [queries(70), queries(71)];
    let mut engine = InferenceEngine::new(m.clone(), ServeOptions::default()).expect("valid");
    for i in 0..12 {
        let input = design(&mut rng);
        let coords = &meshes[i % 2];
        let got = engine.predict(&[&input], coords).expect("predict");
        let want = m.predict(&[&input], coords).expect("reference");
        assert_eq!(got.as_slice(), want.as_slice(), "request {i}");
    }
    // One slot: alternating sets never repeat back to back, so neither
    // ever materialises Φ.
    assert_eq!(engine.basis_stats(), basis_stats(0, 12, 0));
    // Settling on one mesh fills on its first repeat and hits after that.
    for _ in 0..3 {
        let input = design(&mut rng);
        let got = engine.predict(&[&input], &meshes[1]).expect("predict");
        assert_eq!(got, m.predict(&[&input], &meshes[1]).expect("reference"));
    }
    assert_eq!(engine.basis_stats(), basis_stats(2, 13, 0));
}

#[test]
fn deadline_frontend_call_with_warm_basis_equals_undeadlined_answer() {
    let m = model();
    let coords = queries(90);
    let frontend = |deadline: Option<u64>| {
        let opts = FrontendOptions {
            shards: 1,
            retry_backoff_micros: 0,
            // Several trunk chunks' worth of queries, so a miss splits.
            engine: ServeOptions { trunk_chunk: 16, ..ServeOptions::default() },
            default_deadline_micros: deadline,
            ..FrontendOptions::default()
        };
        ServeFrontend::new(m.clone(), opts).expect("valid options")
    };
    let deadlined = frontend(Some(60_000_000));
    let plain = frontend(None);
    let mut rng = StdRng::seed_from_u64(7);
    // Request 0 records the mesh, 1 builds Φ, 2.. combine from it.
    for i in 0..5 {
        let input = design(&mut rng);
        let with = deadlined.call(&[&input], &coords).expect("deadlined");
        let without = plain.call(&[&input], &coords).expect("undeadlined");
        assert_eq!(with.values.as_slice(), without.values.as_slice(), "request {i}");
        let want = m.predict(&[&input], &coords).expect("reference");
        assert_eq!(with.values.as_slice(), want.as_slice(), "request {i}");
    }
}

#[test]
fn f32_engine_output_is_unchanged_by_the_basis() {
    let m = model();
    let lowered = m.lower_trunk();
    let coords = queries(300);
    let opts = ServeOptions { precision: Precision::F32, ..ServeOptions::default() };
    let mut engine = InferenceEngine::new(m.clone(), opts.clone()).expect("valid options");
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..4 {
        let input = design(&mut rng);
        let got = engine.predict(&[&input], &coords).expect("predict");
        let embedding = m.encode_branches(&[&input]).expect("encode");
        let want =
            lowered.eval_trunk_batch(&embedding, &coords, opts.trunk_chunk).expect("lowered");
        assert_eq!(got.as_slice(), want.as_slice());
    }
    assert_eq!(engine.basis_stats(), CacheStats::default(), "F32 engines have no basis");
}
