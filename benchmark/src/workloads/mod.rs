//! The three workloads. Each `run` measures for the run's seconds on state
//! it rebuilds several times over the run (the median build time is
//! `setup_s`), checks the program's outputs, and returns its metrics. An operation is one
//! design (`design_loop`, `reference`) or one training step (`train`);
//! each workload fixes the latency limit its `slo_fraction` counts
//! against.

pub mod design_loop;
pub mod reference;
pub mod train;

use std::time::Instant;

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::DeepOHeat;
use deepoheat_chip::Chip;
use deepoheat_fdm::{BoundaryCondition, Face};
use deepoheat_linalg::Matrix;

use crate::{fail, Ctx, Res};

/// Builds of the workload state per measured loop; `setup_s` is their
/// median.
pub const SETUP_REPEATS: usize = 9;

/// Operations each half of a traced run must reach. The traced run
/// reports no percentile, so it needs fewer than an untraced one.
pub const TRACED_MIN_OPS: usize = 20;

/// Salt separating warm-up inputs from measured ones.
pub const WARMUP_SALT: u64 = 0x7761_726d_7570_0000;

/// The §IV.A / §V.A paper architecture with weights seeded from `seed`,
/// and the 4,851 normalised mesh coordinates of the §V.A chip.
pub fn paper_model(seed: u64) -> Res<(DeepOHeat, Matrix)> {
    let config = PowerMapExperimentConfig { seed, ..PowerMapExperimentConfig::paper() };
    let experiment = PowerMapExperiment::new(config).map_err(fail("build paper model"))?;
    Ok((experiment.model().clone(), experiment.eval_coords().clone()))
}

/// The §V.A chip of `config`: a single cuboid with bottom convection and
/// the other faces adiabatic, as `PowerMapExperiment` builds it.
pub fn section_va_chip(config: &PowerMapExperimentConfig) -> Res<Chip> {
    let mut chip = Chip::single_cuboid(
        config.lx,
        config.ly,
        config.lz,
        config.nx,
        config.ny,
        config.nz,
        config.conductivity,
    )
    .map_err(fail("chip"))?;
    chip.set_boundary(
        Face::ZMin,
        BoundaryCondition::Convection { htc: config.htc_bottom, ambient: config.ambient },
    )
    .map_err(fail("chip boundary"))?;
    Ok(chip)
}

/// Calls `op` until `seconds` of wall time have passed and it has run at
/// least `min_ops` times, but stops at `3 × seconds` (at least 60 s)
/// regardless. `op` returns the milliseconds of its timed part.
pub fn timed_loop(
    seconds: f64,
    min_ops: usize,
    mut op: impl FnMut(usize) -> Res<f64>,
) -> Res<Vec<f64>> {
    let start = Instant::now();
    let mut ms = Vec::with_capacity(min_ops * 2);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && ms.len() >= min_ops) || elapsed >= (3.0 * seconds).max(60.0) {
            return Ok(ms);
        }
        ms.push(op(ms.len())?);
    }
}

/// Operations a timed loop of this run must reach: `untraced` in an
/// untraced run, [`TRACED_MIN_OPS`] in a traced one.
pub fn min_ops(ctx: &Ctx, untraced: usize) -> usize {
    if ctx.trace {
        TRACED_MIN_OPS
    } else {
        untraced
    }
}

/// Runs `op` for `seconds` (and at least `min_ops` times) on state that is
/// built [`SETUP_REPEATS`] times, once before each equal share of the run,
/// and dropped before the next build. Spread over the run, the builds meet
/// the same host as the operations: built back to back, their median moved
/// by 31% between two sets of ten runs where the operation times moved by
/// 13%. `op` gets the state and the operation's index in the run and
/// returns the ms of its timed part. Returns the last state, the median
/// build time in seconds and the ms of every operation.
pub fn rebuilt_loop<T>(
    seconds: f64,
    min_ops: usize,
    mut build: impl FnMut() -> Res<T>,
    mut op: impl FnMut(&mut T, usize) -> Res<f64>,
) -> Res<(T, f64, Vec<f64>)> {
    let share = seconds / SETUP_REPEATS as f64;
    let mut build_s = Vec::with_capacity(SETUP_REPEATS);
    let mut ms = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let t0 = Instant::now();
        let mut built = build()?;
        build_s.push(t0.elapsed().as_secs_f64());
        let done = ms.len();
        let part =
            timed_loop(share, min_ops.div_ceil(SETUP_REPEATS), |i| op(&mut built, done + i))?;
        ms.extend(part);
        state = Some(built);
    }
    let state = state.ok_or("setup ran zero times")?;
    Ok((state, crate::stats::median(&build_s), ms))
}

/// Milliseconds taken by `f`, with its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// A percentile the sample must support; errors instead of printing an
/// unsupported tail.
pub fn supported(samples: &[f64], per_mille: usize, what: &str) -> Res<f64> {
    crate::stats::percentile(samples, per_mille).ok_or_else(|| {
        format!(
            "{what}: {} samples do not support p{} (need {})",
            samples.len(),
            per_mille / 10,
            crate::stats::min_samples_for(per_mille)
        )
    })
}

/// The gated tail of an operation's times: the blocked p75, which the
/// sample must support. A blocked p90 was tried first: a `design_loop`
/// run has about 330 designs, only three blocks of 100, and over ten seeds
/// its quartile spread reached 0.255 of its median when a noisy stretch
/// of the host covered three runs. A p75 needs 40 samples a block, so
/// such a run has eight blocks.
pub fn tail_p75(samples: &[f64], what: &str) -> Res<f64> {
    crate::stats::blocked_percentile(samples, 750).ok_or_else(|| {
        format!(
            "{what}: {} samples do not support p75 (need {})",
            samples.len(),
            crate::stats::min_samples_for(750)
        )
    })
}

/// Share of `attempted` operations that succeeded within `limit_ms`.
/// `ok_ms` holds the times of the operations that succeeded, so failed
/// ones miss.
pub fn slo_fraction(ok_ms: &[f64], limit_ms: f64, attempted: usize) -> f64 {
    ok_ms.iter().filter(|&&ms| ms <= limit_ms).count() as f64 / attempted as f64
}

/// True when both matrices hold the same bits.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}
