//! Batched inference serving for DeepOHeat surrogates.
//!
//! Training produces a model; design-space exploration then evaluates it
//! thousands of times — often for the *same* power map or boundary
//! condition at many query points, or for small edits of a design. This
//! crate exploits the DeepONet factorisation `T(u)(y) = Σ_q B_q(u) Φ_q(y)`:
//! the branch nets depend only on the input functions `u`, the trunk only
//! on the query coordinate `y`, so serving splits into
//!
//! 1. [`InferenceEngine::encode_branches`] — run the branch nets once per
//!    distinct design and memoise the resulting [`BranchEmbedding`]
//!    ([`deepoheat::BranchEmbedding`], re-exported here) in a
//!    deterministic, capacity-bounded LRU cache keyed by the **content**
//!    of the sensor values ([`CacheKey`]);
//! 2. [`InferenceEngine::eval_trunk_batch`] — evaluate the trunk for a
//!    whole batch of query points in fixed-size chunks through the shared
//!    worker pool and combine with the embedding. The trunk features of a
//!    query-coordinate set that arrives twice in a row are kept in a
//!    single slot, so later designs on that mesh pay only the combine.
//!
//! Results are bit-identical to a cold per-query evaluation at any
//! `DEEPOHEAT_NUM_THREADS` setting: chunk boundaries derive only from the
//! batch size and [`ServeOptions::trunk_chunk`], and chunk outputs are
//! stitched in index order. Cache behaviour is likewise deterministic —
//! logical-tick LRU, no wall clock — so a replayed request sequence hits,
//! misses, and evicts identically every run.
//!
//! Telemetry: the engine emits `serve.cache.hits`, `serve.cache.misses`,
//! `serve.cache.evictions`, `serve.basis.hits`, `serve.basis.misses`, and
//! `serve.queries` counters through
//! [`deepoheat_telemetry`] when a recorder is installed, and is free of
//! overhead otherwise.
//!
//! # Concurrent front-end
//!
//! [`ServeFrontend`] layers an overload-safe concurrent request path over
//! N sharded engines: content-hash routing to per-shard caches, bounded
//! admission queues with typed [`ServeError::Overloaded`] shedding,
//! per-request deadlines propagated into trunk chunking
//! ([`ServeError::DeadlineExceeded`]), retry with bounded backoff for
//! transient shard errors, and per-shard circuit breakers that reroute
//! around an unhealthy shard with a [`Served::degraded`] flag. The whole
//! pipeline is chaos-testable through a deterministic, replayable
//! [`ServeFaultPlan`]; see the [`frontend`] module docs for the contract.
//!
//! ```
//! use deepoheat::{DeepOHeat, DeepOHeatConfig};
//! use deepoheat_linalg::Matrix;
//! use deepoheat_serve::{InferenceEngine, ServeOptions};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let cfg = DeepOHeatConfig::single_branch(4, &[8], &[8], 6);
//! let model = DeepOHeat::new(&cfg, &mut StdRng::seed_from_u64(0)).unwrap();
//! let mut engine = InferenceEngine::new(model, ServeOptions::default()).unwrap();
//!
//! let power_map = Matrix::filled(1, 4, 0.5);
//! let queries = Matrix::from_fn(64, 3, |i, j| (i as f64 * 0.01) + j as f64 * 0.3);
//! let warm_embedding = engine.encode_branches(&[&power_map]).unwrap();
//! let field = engine.eval_trunk_batch(&warm_embedding, &queries).unwrap();
//! assert_eq!(field.rows(), 1);
//! assert_eq!(field.cols(), 64);
//! assert_eq!(engine.cache_stats().misses, 1);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod clock;
mod engine;
mod error;
mod fault;
pub mod frontend;
mod queue;

pub use cache::{CacheKey, CacheStats, EmbeddingCache};
pub use clock::{Clock, ManualClock, WallClock};
pub use engine::{InferenceEngine, Precision, ServeOptions};
pub use error::ServeError;
pub use fault::{ChaosStage, ServeFaultPlan};
pub use frontend::{FrontendOptions, FrontendStats, ServeFrontend, Served, Ticket};

pub use deepoheat::BranchEmbedding;
