//! The batched inference engine: validated options, cache-aware branch
//! encoding, and chunked trunk evaluation.

use std::sync::Arc;

use deepoheat::{BranchEmbedding, DeepOHeat, TrunkF32, DEFAULT_TRUNK_CHUNK};
use deepoheat_linalg::Matrix;
use deepoheat_telemetry as telemetry;

use crate::cache::{CacheKey, CacheStats, EmbeddingCache};
use crate::error::ServeError;

/// Numeric precision of the trunk-evaluation hot path.
///
/// `F64` (the default) computes exactly what [`DeepOHeat::predict`] does.
/// `F32` lowers the trunk-side parameters once at engine construction and
/// runs every query through the single-precision fused kernels — roughly
/// half the memory traffic on the memory-bound serving matmuls — at the
/// cost of ~1e-4 relative divergence from the `f64` answer (bounded by an
/// accuracy test in `deepoheat`). Each precision is individually
/// deterministic: results are bitwise independent of thread count and
/// chunking, but the two precisions are *not* bit-comparable to each
/// other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Double precision; bit-identical to the offline model (default).
    #[default]
    F64,
    /// Single precision via the lowered trunk; opt-in.
    F32,
}

/// Validated configuration of an [`InferenceEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Maximum number of branch embeddings kept resident. `0` disables
    /// the cache entirely (every request re-encodes).
    pub cache_capacity: usize,
    /// Rows per trunk-evaluation chunk dispatched through the worker
    /// pool. Must be positive; chunk boundaries depend only on this value
    /// and the query count, never on the thread count, so results are
    /// bit-identical at any pool width.
    pub trunk_chunk: usize,
    /// Numeric precision of the trunk hot path.
    pub precision: Precision,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache_capacity: 64,
            trunk_chunk: DEFAULT_TRUNK_CHUNK,
            precision: Precision::F64,
        }
    }
}

impl ServeOptions {
    /// Checks the options for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when `trunk_chunk` is zero.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.trunk_chunk == 0 {
            return Err(ServeError::InvalidOptions {
                what: "trunk_chunk must be positive (rows per dispatched chunk)".into(),
            });
        }
        Ok(())
    }
}

/// A serving front-end over a trained [`DeepOHeat`] model.
///
/// The engine splits evaluation into two phases. [`encode_branches`]
/// runs every branch net exactly once per distinct input-function set and
/// memoises the resulting [`BranchEmbedding`] in a deterministic LRU
/// cache keyed by the content of the sensor values. [`eval_trunk_batch`]
/// evaluates the trunk for a batch of query coordinates in fixed-size
/// chunks through the shared worker pool and combines them with the
/// embedding. Repeated designs therefore pay the branch cost once, and
/// answers are bit-identical to a cold single-query evaluation.
///
/// The trunk side is memoised too, in a single slot: once the same query
/// coordinates (compared bit for bit) arrive twice in a row, the engine
/// keeps their trunk features `Φ` and later requests on that mesh pay
/// only the combine `offset + scale · B Φᵀ`. See [`eval_trunk_batch`].
///
/// [`encode_branches`]: InferenceEngine::encode_branches
/// [`eval_trunk_batch`]: InferenceEngine::eval_trunk_batch
#[derive(Debug)]
pub struct InferenceEngine {
    model: DeepOHeat,
    /// Lowered `f32` trunk, built once at construction when
    /// [`ServeOptions::precision`] is [`Precision::F32`].
    lowered: Option<TrunkF32>,
    options: ServeOptions,
    cache: EmbeddingCache,
    basis: TrunkBasis,
    shut_down: bool,
}

/// The single-slot trunk basis: the last query coordinates seen and,
/// once they have repeated, their trunk features `Φ` (`n_points × q`).
#[derive(Debug, Default)]
struct TrunkBasis {
    coords: Option<Matrix>,
    phi: Option<Arc<Matrix>>,
    stats: CacheStats,
}

/// Same shape and the same bit pattern in every entry, so `0.0` and
/// `-0.0` (or two NaN payloads) are different coordinates.
fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape() && a.iter().zip(b.iter()).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl InferenceEngine {
    /// Wraps a model with validated serving options.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidOptions`] when the options fail
    /// [`ServeOptions::validate`].
    pub fn new(model: DeepOHeat, options: ServeOptions) -> Result<Self, ServeError> {
        options.validate()?;
        let cache = EmbeddingCache::new(options.cache_capacity);
        let lowered = match options.precision {
            Precision::F64 => None,
            Precision::F32 => Some(model.lower_trunk()),
        };
        Ok(InferenceEngine {
            model,
            lowered,
            options,
            cache,
            basis: TrunkBasis::default(),
            shut_down: false,
        })
    }

    /// The wrapped model.
    pub fn model(&self) -> &DeepOHeat {
        &self.model
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// Snapshot of the cache's hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Number of embeddings currently resident in the cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Snapshot of the trunk-basis counters: `hits` are trunk evaluations
    /// served from a resident `Φ`, `misses` every other `F64` evaluation
    /// (including the one that builds `Φ`), `evictions` the resident `Φ`s
    /// dropped for a different coordinate set.
    pub fn basis_stats(&self) -> CacheStats {
        self.basis.stats
    }

    /// Returns the branch embedding for one input-function set, encoding
    /// it if absent and serving it from the cache otherwise. Emits the
    /// `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`
    /// telemetry counters.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] when the inputs do not match the
    /// model's branch shapes.
    pub fn encode_branches(
        &mut self,
        branch_inputs: &[&Matrix],
    ) -> Result<Arc<BranchEmbedding>, ServeError> {
        let key = CacheKey::of(branch_inputs);
        if let Some(cached) = self.cache.get(&key) {
            telemetry::counter("serve.cache.hits", 1);
            return Ok(cached);
        }
        telemetry::counter("serve.cache.misses", 1);
        let _span = telemetry::span("serve.encode");
        let embedding = Arc::new(self.model.encode_branches(branch_inputs)?);
        let before = self.cache.stats().evictions;
        self.cache.insert(key, Arc::clone(&embedding));
        let evicted = self.cache.stats().evictions - before;
        if evicted > 0 {
            telemetry::counter("serve.cache.evictions", evicted);
        }
        Ok(embedding)
    }

    /// Evaluates the trunk for a batch of query coordinates (rows of
    /// `coords`) against a previously encoded embedding, chunking rows
    /// through the worker pool. Returns the `n_configs × n_points`
    /// temperature matrix. Emits the `serve.queries` counter.
    ///
    /// With [`Precision::F64`] the call goes through the trunk-basis slot.
    /// When `coords` equals the slot's coordinates bit for bit and their
    /// `Φ` is resident, only the combine runs (`serve.basis.hits`). When
    /// they equal the slot's coordinates but `Φ` is not yet built, this is
    /// their first repeat: `Φ` is built (`serve.basis.fill` span) and kept.
    /// Any other set replaces the slot's coordinates, drops its `Φ`, and
    /// runs the fused chunked trunk. Both misses count towards
    /// `serve.basis.misses`. Every path is bit-identical to
    /// [`DeepOHeat::predict`] at any pool width.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Model`] when the embedding's latent width or
    /// the coordinate dimension does not match the model.
    pub fn eval_trunk_batch(
        &mut self,
        embedding: &BranchEmbedding,
        coords: &Matrix,
    ) -> Result<Matrix, ServeError> {
        match self.trunk_basis(coords)? {
            Some(phi) => self.combine(embedding, &phi),
            None => self.eval_trunk_rows(embedding, coords),
        }
    }

    /// Looks `coords` up in the trunk-basis slot, returning the resident
    /// (or freshly built) `Φ` on a match and recording `coords` otherwise.
    /// `F32` engines have no basis and always get `None`.
    pub(crate) fn trunk_basis(
        &mut self,
        coords: &Matrix,
    ) -> Result<Option<Arc<Matrix>>, ServeError> {
        if self.lowered.is_some() {
            return Ok(None);
        }
        let basis = &mut self.basis;
        if !basis.coords.as_ref().is_some_and(|c| same_bits(c, coords)) {
            if basis.phi.take().is_some() {
                basis.stats.evictions += 1;
            }
            basis.coords = Some(coords.clone());
            basis.stats.misses += 1;
            telemetry::counter("serve.basis.misses", 1);
            return Ok(None);
        }
        if let Some(phi) = &basis.phi {
            basis.stats.hits += 1;
            telemetry::counter("serve.basis.hits", 1);
            return Ok(Some(Arc::clone(phi)));
        }
        basis.stats.misses += 1;
        telemetry::counter("serve.basis.misses", 1);
        let _span = telemetry::span("serve.basis.fill");
        let phi = Arc::new(self.model.trunk_features_inference(coords)?);
        self.basis.phi = Some(Arc::clone(&phi));
        Ok(Some(phi))
    }

    /// The trunk-skipping half of [`InferenceEngine::eval_trunk_batch`]:
    /// `offset + scale · B Φᵀ` in the fused kernel the chunked path uses
    /// per chunk, so the two agree bit for bit.
    pub(crate) fn combine(
        &self,
        embedding: &BranchEmbedding,
        phi: &Matrix,
    ) -> Result<Matrix, ServeError> {
        let _span = telemetry::span("serve.trunk");
        let (offset, scale) = self.model.output_transform();
        let out = embedding
            .features()
            .matmul_transposed_affine(phi, offset, scale)
            .map_err(|e| ServeError::Model(e.into()))?;
        telemetry::counter("serve.queries", phi.rows() as u64);
        Ok(out)
    }

    /// Fused chunked trunk evaluation that neither reads nor replaces the
    /// trunk-basis slot.
    pub(crate) fn eval_trunk_rows(
        &self,
        embedding: &BranchEmbedding,
        coords: &Matrix,
    ) -> Result<Matrix, ServeError> {
        let _span = telemetry::span("serve.trunk");
        let out = match &self.lowered {
            Some(trunk) => trunk.eval_trunk_batch(embedding, coords, self.options.trunk_chunk)?,
            None => self.model.eval_trunk_batch(embedding, coords, self.options.trunk_chunk)?,
        };
        telemetry::counter("serve.queries", coords.rows() as u64);
        Ok(out)
    }

    /// One-call convenience: cache-aware branch encoding followed by a
    /// batched trunk evaluation. The whole call is wrapped in a
    /// `serve.request` span — one trace per request — feeding the
    /// `serve.request.seconds` latency histogram with child spans for the
    /// encode (`serve.encode`, cache misses only), trunk-basis fill
    /// (`serve.basis.fill`, first repeat of a coordinate set only) and
    /// trunk or combine (`serve.trunk`) phases.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`InferenceEngine::encode_branches`] and
    /// [`InferenceEngine::eval_trunk_batch`].
    pub fn predict(
        &mut self,
        branch_inputs: &[&Matrix],
        coords: &Matrix,
    ) -> Result<Matrix, ServeError> {
        let _span = telemetry::span("serve.request");
        let embedding = self.encode_branches(branch_inputs)?;
        self.eval_trunk_batch(&embedding, coords)
    }

    /// Finishes the engine's telemetry story: emits the final
    /// `serve.cache.hit_rate` gauge and flushes every sink so short runs
    /// don't lose buffered tail events. Called automatically on drop;
    /// call it explicitly to control *when* the flush cost is paid (e.g.
    /// outside a timed region). Idempotent.
    pub fn shutdown(&mut self) {
        if self.shut_down {
            return;
        }
        self.shut_down = true;
        if telemetry::is_enabled() {
            telemetry::gauge("serve.cache.hit_rate", self.cache.stats().hit_rate());
            telemetry::flush();
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> DeepOHeat {
        let cfg = deepoheat::DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
        let mut rng = StdRng::seed_from_u64(7);
        DeepOHeat::new(&cfg, &mut rng).expect("invariant: config is valid")
    }

    #[test]
    fn zero_trunk_chunk_is_rejected() {
        let opts = ServeOptions { trunk_chunk: 0, ..ServeOptions::default() };
        assert!(opts.validate().is_err());
        assert!(InferenceEngine::new(model(), opts).is_err());
    }

    #[test]
    fn predict_matches_model_predict_bitwise() {
        let m = model();
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(17, 3, |i, j| (i as f64).mul_add(0.05, j as f64 * 0.3));
        let expected = m.predict(&[&input], &coords).expect("invariant: shapes match");

        let mut engine = InferenceEngine::new(m, ServeOptions::default()).expect("valid options");
        let cold = engine.predict(&[&input], &coords).expect("cold predict");
        let warm = engine.predict(&[&input], &coords).expect("warm predict");
        assert_eq!(cold.as_slice(), expected.as_slice());
        assert_eq!(warm.as_slice(), expected.as_slice());

        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn repeated_designs_encode_once() {
        let mut engine = InferenceEngine::new(
            model(),
            ServeOptions { cache_capacity: 2, trunk_chunk: 8, ..ServeOptions::default() },
        )
        .expect("valid options");
        let a = Matrix::filled(1, 4, 0.5);
        let b = Matrix::filled(1, 4, 0.25);
        let coords = Matrix::from_fn(5, 3, |i, j| (i + j) as f64 * 0.1);
        for _ in 0..3 {
            engine.predict(&[&a], &coords).expect("predict a");
            engine.predict(&[&b], &coords).expect("predict b");
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "each design encoded exactly once");
        assert_eq!(stats.hits, 4);
        assert_eq!(engine.cache_len(), 2);
    }

    #[test]
    fn shutdown_is_idempotent_and_safe_without_telemetry() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::filled(3, 3, 0.1);
        engine.predict(&[&input], &coords).expect("predict");
        // No recorder installed: shutdown (and the later drop) must be
        // inert no-ops rather than panicking or emitting.
        engine.shutdown();
        engine.shutdown();
    }

    #[test]
    fn f32_precision_is_deterministic_and_tracks_f64() {
        let m = model();
        let input = Matrix::from_fn(1, 4, |_, j| 0.1 * (j as f64 + 1.0));
        let coords = Matrix::from_fn(33, 3, |i, j| 0.03 * i as f64 + 0.2 * j as f64);
        let mut full = InferenceEngine::new(m.clone(), ServeOptions::default()).unwrap();
        let opts32 = ServeOptions { precision: Precision::F32, ..ServeOptions::default() };
        let mut narrow = InferenceEngine::new(m, opts32).unwrap();

        let expected = full.predict(&[&input], &coords).unwrap();
        let got = narrow.predict(&[&input], &coords).unwrap();
        assert_eq!(expected.shape(), got.shape());
        let scale = expected.iter().fold(1.0f64, |s, v| s.max(v.abs()));
        for (a, b) in expected.iter().zip(got.iter()) {
            assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
        }

        // Within the f32 precision: bit-identical across repeats and
        // pool widths (the same contract the f64 path guarantees).
        let emb = narrow.encode_branches(&[&input]).unwrap();
        let base = narrow.eval_trunk_batch(&emb, &coords).unwrap();
        for threads in [1, 2, 4] {
            let pool = deepoheat_parallel::ThreadPool::new(threads);
            let under = pool.install(|| narrow.eval_trunk_batch(&emb, &coords)).unwrap();
            assert_eq!(base, under, "threads = {threads}");
        }
    }

    #[test]
    fn basis_hit_rejects_a_foreign_embedding() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let input = Matrix::filled(1, 4, 0.5);
        let coords = Matrix::filled(3, 3, 0.1);
        // Record the mesh, then build its Φ.
        engine.predict(&[&input], &coords).expect("cold");
        engine.predict(&[&input], &coords).expect("fill");
        let cfg = deepoheat::DeepOHeatConfig::single_branch(4, &[8], &[8], 3);
        let other = DeepOHeat::new(&cfg, &mut StdRng::seed_from_u64(1)).expect("valid config");
        let foreign = other.encode_branches(&[&input]).expect("encode");
        let err = engine.eval_trunk_batch(&foreign, &coords).expect_err("latent mismatch");
        assert!(matches!(err, ServeError::Model(_)));
        assert_eq!(engine.basis_stats().hits, 1, "the mismatch was caught on the hit path");
    }

    #[test]
    fn bad_branch_shape_surfaces_model_error() {
        let mut engine =
            InferenceEngine::new(model(), ServeOptions::default()).expect("valid options");
        let wrong = Matrix::filled(1, 3, 1.0);
        let coords = Matrix::filled(2, 3, 0.5);
        let err = engine.predict(&[&wrong], &coords).expect_err("shape mismatch");
        assert!(matches!(err, ServeError::Model(_)));
        // A failed encode must not pollute the cache.
        assert_eq!(engine.cache_len(), 0);
    }
}
