//! `reference`: FDM ground truth for the same seeded floorplans as
//! `design_loop`, solved in batches through `HeatProblem::solve_batch` on
//! the §V.A chip. It exercises assembly, preconditioned block CG,
//! recycling and SpMV, and bypasses the network.

use deepoheat::experiments::PowerMapExperimentConfig;
use deepoheat_chip::Chip;
use deepoheat_fdm::{BatchReport, BatchSolveOptions, Face, FluxMap, HeatProblem, SolveOptions};
use deepoheat_linalg::{CooMatrix, Matrix};
use rand::rngs::StdRng;

use super::{
    min_ops, rebuilt_loop, section_va_chip, supported, tail_p75, time_ms, timed_loop,
    TRACED_MIN_OPS, WARMUP_SALT,
};
use crate::inputs::{floorplan, salt, stream};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{fail, peak_rss_mb, write_trace, Ctx, Outcome, Res};

/// Floorplans per `solve_batch` call.
const BATCH: usize = 16;
/// A design meets the SLO when its batch took at most this many ms per
/// design, about six times the 8 ms `solve_batch` took when the workload
/// was defined.
pub const LATENCY_LIMIT_MS: f64 = 50.0;
/// Batches an untraced run must reach: two blocks of the blocked p75.
const MIN_BATCHES: usize = 100;
/// A sampled column may differ from a per-map `HeatProblem::solve` by at
/// most this multiple of the solve tolerance, relative to the field's
/// largest rise above ambient.
const AGREEMENT_FACTOR: f64 = 1e3;
/// Cold single solves timed for `fdm.single_solve_ms`.
const SINGLE_SOLVES: usize = 3;
/// SpMV calls per timed sample, and samples.
const SPMV_CALLS: usize = 200;
const SPMV_SAMPLES: usize = 15;

struct State {
    config: PowerMapExperimentConfig,
    chip: Chip,
    problem: HeatProblem,
    options: BatchSolveOptions,
}

impl State {
    fn new(seed: u64) -> Res<Self> {
        let config = PowerMapExperimentConfig::default();
        let chip = section_va_chip(&config)?;
        let problem = chip.heat_problem().map_err(fail("heat problem"))?;
        let state = State { config, chip, problem, options: BatchSolveOptions::default() };
        let mut warm = stream(seed ^ WARMUP_SALT, salt::DESIGNS);
        state.solve(&state.draw(&mut warm))?;
        Ok(state)
    }

    fn draw(&self, designs: &mut StdRng) -> Vec<Matrix> {
        (0..BATCH).map(|_| floorplan(designs)).collect()
    }

    fn solve(&self, maps: &[Matrix]) -> Res<deepoheat_fdm::BatchOutcome> {
        let flux: Vec<FluxMap> =
            maps.iter().map(|m| FluxMap::Field(self.chip.units_to_flux(m))).collect();
        self.problem.solve_batch(Face::ZMax, &flux, &self.options).map_err(fail("solve_batch"))
    }

    /// A cold per-map solve, assembly included.
    fn single(&self, map: &Matrix) -> Res<Vec<f64>> {
        let mut chip = self.chip.clone();
        chip.set_top_power_map_units(map).map_err(fail("set power map"))?;
        let problem = chip.heat_problem().map_err(fail("heat problem"))?;
        let solution = problem.solve(SolveOptions::default()).map_err(fail("solve"))?;
        Ok(solution.into_temperatures())
    }
}

/// Totals over the measured batches.
#[derive(Default)]
struct Tally {
    batch_ms: Vec<f64>,
    designs: usize,
    /// Designs solved, not degraded, in batches within the latency limit.
    within_limit: usize,
    iterations: usize,
    degraded: usize,
    polished: usize,
    recycle_hit_ratio: Vec<f64>,
    /// The first batch's floorplans and temperatures, for the check.
    kept: Option<(Vec<Matrix>, Vec<Vec<f64>>)>,
}

impl Tally {
    fn add(&mut self, ms: f64, outcome: &deepoheat_fdm::BatchOutcome) {
        let BatchReport { columns, degraded, polished, recycle_hit_ratio, .. } = outcome.report;
        self.batch_ms.push(ms);
        self.designs += columns;
        if ms / columns as f64 <= LATENCY_LIMIT_MS {
            self.within_limit += columns - degraded;
        }
        self.iterations += outcome.solutions.iter().map(|s| s.iterations()).sum::<usize>();
        self.degraded += degraded;
        self.polished += polished;
        self.recycle_hit_ratio.push(recycle_hit_ratio);
    }

    /// Median batch time over the batch size: robust to a stalled batch.
    fn ms_per_design(&self) -> f64 {
        median(&self.batch_ms) / BATCH as f64
    }

    /// Each batch's time over the batch size.
    fn design_ms(&self) -> Vec<f64> {
        self.batch_ms.iter().map(|ms| ms / BATCH as f64).collect()
    }
}

/// Solves one batch of fresh floorplans into `tally`, inside a
/// `fdm.solve_batch` span when traced. The first batch of a tally is kept
/// for the check.
fn batch(
    state: &State,
    designs: &mut StdRng,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
    b: usize,
) -> Res<f64> {
    let maps = state.draw(designs);
    let (outcome, ms) = match tracer {
        Some(t) => {
            let span = t.begin("fdm.solve_batch", b as u64, None);
            let timed = time_ms(|| state.solve(&maps));
            t.end(span);
            timed
        }
        None => time_ms(|| state.solve(&maps)),
    };
    let outcome = outcome?;
    tally.add(ms, &outcome);
    if tally.kept.is_none() {
        let temps = outcome.solutions.into_iter().map(|s| s.into_temperatures()).collect();
        tally.kept = Some((maps, temps));
    }
    Ok(ms)
}

/// No column may be degraded, and sampled columns must agree with a
/// per-map `HeatProblem::solve` within the solve tolerance.
fn check(state: &State, tally: &Tally) -> Res<()> {
    if tally.degraded > 0 {
        return Err(format!("reference: {} column(s) degraded", tally.degraded));
    }
    let (maps, temps) = tally.kept.as_ref().ok_or("reference: no batch was solved")?;
    let ambient = state.config.ambient;
    let tolerance = state.options.solve.tolerance;
    for i in [0, maps.len() - 1] {
        let single = state.single(&maps[i])?;
        let rise = single.iter().fold(0.0f64, |m, t| m.max(t - ambient));
        let diff = single.iter().zip(&temps[i]).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        let relative = diff / rise;
        eprintln!("check: column {i} differs from a single solve by {relative:.3e} of the rise");
        if relative.is_nan() || relative > AGREEMENT_FACTOR * tolerance {
            return Err(format!(
                "reference: column {i} differs from a single solve by {relative:.3e} \
                 (limit {:.1e})",
                AGREEMENT_FACTOR * tolerance
            ));
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut designs = stream(ctx.seed, salt::DESIGNS);
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut tally = Tally::default();
    let build = || State::new(ctx.seed);
    let (state, setup_s, _) =
        rebuilt_loop(seconds, min_ops(ctx, MIN_BATCHES), build, |state, b| {
            batch(state, &mut designs, &mut tally, None, b)
        })?;
    check(&state, &tally)?;
    let mut out = Outcome {
        attempted: tally.designs as u64,
        failed: tally.degraded as u64,
        metrics: Vec::new(),
    };
    if ctx.trace {
        let mut tracer = Tracer::new(std::time::Instant::now());
        let mut traced = Tally::default();
        timed_loop(ctx.seconds / 2.0, TRACED_MIN_OPS, |b| {
            batch(&state, &mut designs, &mut traced, Some(&mut tracer), b)
        })?;
        check(&state, &traced)?;
        write_trace(ctx, "reference", &tracer)?;
        let maps = &traced.kept.as_ref().ok_or("reference: no traced batch")?.0;
        let single_ms: Vec<f64> =
            maps.iter().take(SINGLE_SOLVES).map(|m| time_ms(|| state.single(m)).1).collect();
        let batches = traced.batch_ms.len() as f64;
        out.push(
            "fdm.cg_iters_per_design",
            "count",
            traced.iterations as f64 / traced.designs as f64,
        );
        out.push(
            "fdm.ms_per_cg_iter",
            "ms",
            traced.batch_ms.iter().sum::<f64>() / traced.iterations as f64,
        );
        out.push("fdm.recycle_hit_ratio", "fraction", mean(&traced.recycle_hit_ratio));
        out.push("fdm.polished", "count/batch", traced.polished as f64 / batches);
        out.push("fdm.degraded", "count/batch", traced.degraded as f64 / batches);
        out.push("fdm.single_solve_ms", "ms", median(&single_ms));
        out.push("linalg.spmv_gbytes_per_s", "GB/s", spmv_gbytes_per_s(&state.config)?);
        out.push(
            "bench.trace_overhead",
            "fraction",
            traced.ms_per_design() / tally.ms_per_design() - 1.0,
        );
        return Ok(out);
    }
    out.push("setup_s", "s", setup_s);
    out.push("peak_rss_mb", "MiB", peak_rss_mb()?);
    out.push("ops_per_s", "1/s", 1e3 / tally.ms_per_design());
    let design_ms = tally.design_ms();
    out.push("op_ms.p50", "ms", supported(&design_ms, 500, "design_ms")?);
    out.push("op_ms.p75", "ms", tail_p75(&design_ms, "design_ms")?);
    out.push("slo_fraction", "fraction", tally.within_limit as f64 / tally.designs as f64);
    Ok(out)
}

/// `CsrMatrix::spmv` on a 7-point operator with the §V.A mesh's size, in
/// computed GB/s: 16 bytes per stored entry (value and column index),
/// 8 per row pointer, and one 8-byte read of `x` and write of `y` per
/// row.
fn spmv_gbytes_per_s(config: &PowerMapExperimentConfig) -> Res<f64> {
    let (nx, ny, nz) = (config.nx, config.ny, config.nz);
    let n = nx * ny * nz;
    let idx = |i: usize, j: usize, k: usize| (k * ny + j) * nx + i;
    let mut coo = CooMatrix::new(n, n);
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let row = idx(i, j, k);
                coo.push(row, row, 6.0);
                let mut neighbour = |c: usize| coo.push(row, c, -1.0);
                if i > 0 {
                    neighbour(idx(i - 1, j, k));
                }
                if i + 1 < nx {
                    neighbour(idx(i + 1, j, k));
                }
                if j > 0 {
                    neighbour(idx(i, j - 1, k));
                }
                if j + 1 < ny {
                    neighbour(idx(i, j + 1, k));
                }
                if k > 0 {
                    neighbour(idx(i, j, k - 1));
                }
                if k + 1 < nz {
                    neighbour(idx(i, j, k + 1));
                }
            }
        }
    }
    let csr = coo.to_csr();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.01).collect();
    let mut samples = Vec::with_capacity(SPMV_SAMPLES);
    for _ in 0..SPMV_SAMPLES {
        let (y, ms) = time_ms(|| {
            let mut last = Vec::new();
            for _ in 0..SPMV_CALLS {
                last = csr.spmv(std::hint::black_box(&x))?;
            }
            Ok::<_, deepoheat_linalg::LinalgError>(last)
        });
        std::hint::black_box(y.map_err(fail("spmv"))?);
        samples.push(ms / SPMV_CALLS as f64);
    }
    let bytes = 16 * csr.nnz() + 8 * (n + 1) + 8 * n + 8 * n;
    Ok(bytes as f64 / (median(&samples) * 1e-3) / 1e9)
}
