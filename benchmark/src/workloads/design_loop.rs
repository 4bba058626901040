//! `design_loop`: the thermal-optimisation loop. One caller asks for the
//! full 4,851-node field of one unseen floorplan at a time through
//! `InferenceEngine::predict` and waits for it (closed loop, one client).
//! Every design is new, so the branch cache never hits.

use deepoheat::DeepOHeat;
use deepoheat_linalg::Matrix;
use deepoheat_parallel::ThreadPool;
use deepoheat_serve::{InferenceEngine, ServeOptions};

use super::{
    min_ops, paper_model, rebuilt_loop, same_bits, slo_fraction, supported, tail_p75, time_ms,
    timed_loop, TRACED_MIN_OPS, WARMUP_SALT,
};
use crate::inputs::{branch_row, floorplan, salt, stream};
use crate::stats::{mean, median};
use crate::trace::{self_fraction, Tracer};
use crate::{fail, peak_rss_mb, write_trace, Ctx, Outcome, Res};

/// A design meets the SLO when its field is ready within this many ms,
/// about 2.5 times the 93 ms `predict` took when the workload was defined.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
/// Designs an untraced run must reach: two blocks of the blocked p75.
const MIN_DESIGNS: usize = 100;
/// Every this many designs, one output is kept for the bit check.
const CHECK_EVERY: usize = 50;
/// Timed repetitions of the trunk-shaped GEMM.
const GEMM_REPS: usize = 15;
/// Designs timed on each pool for `parallel.speedup`.
const SPEEDUP_REPS: usize = 5;

struct State {
    model: DeepOHeat,
    coords: Matrix,
    engine: InferenceEngine,
}

fn setup(seed: u64) -> Res<State> {
    let (model, coords) = paper_model(seed)?;
    let mut engine = InferenceEngine::new(model.clone(), ServeOptions::default())
        .map_err(fail("build engine"))?;
    let warm = branch_row(&floorplan(&mut stream(seed ^ WARMUP_SALT, salt::DESIGNS)));
    engine.predict(&[&warm], &coords).map_err(fail("warm-up predict"))?;
    Ok(State { model, coords, engine })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut designs = stream(ctx.seed, salt::DESIGNS);
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut kept = Vec::new();
    let build = || setup(ctx.seed);
    let (mut state, setup_s, design_ms) =
        rebuilt_loop(seconds, min_ops(ctx, MIN_DESIGNS), build, |state, i| {
            let input = branch_row(&floorplan(&mut designs));
            let (field, ms) = time_ms(|| state.engine.predict(&[&input], &state.coords));
            let field = field.map_err(fail("predict"))?;
            if i % CHECK_EVERY == 0 {
                kept.push((input, field));
            }
            Ok(ms)
        })?;
    check_fields(&state, &kept)?;
    let mut out = Outcome { attempted: design_ms.len() as u64, failed: 0, metrics: Vec::new() };
    if ctx.trace {
        traced(ctx, &mut state, &mut designs, mean(&design_ms), &mut out)?;
        return Ok(out);
    }
    out.push("setup_s", "s", setup_s);
    out.push("peak_rss_mb", "MiB", peak_rss_mb()?);
    out.push("ops_per_s", "1/s", 1e3 / median(&design_ms));
    out.push("op_ms.p50", "ms", supported(&design_ms, 500, "design_ms")?);
    out.push("op_ms.p75", "ms", tail_p75(&design_ms, "design_ms")?);
    out.push(
        "slo_fraction",
        "fraction",
        slo_fraction(&design_ms, LATENCY_LIMIT_MS, design_ms.len()),
    );
    Ok(out)
}

/// Sampled fields must equal `DeepOHeat::predict` bit for bit.
fn check_fields(state: &State, kept: &[(Matrix, Matrix)]) -> Res<()> {
    for (input, field) in kept {
        let expected = state.model.predict(&[input], &state.coords).map_err(fail("check"))?;
        if !same_bits(field, &expected) {
            return Err("design_loop: engine field differs from DeepOHeat::predict".into());
        }
    }
    eprintln!("check: {} sampled fields equal DeepOHeat::predict bit for bit", kept.len());
    Ok(())
}

/// The traced half: each request is split into the public calls the
/// engine makes (encode, trunk on the mesh, combine) with a span around
/// each, then the layer micro-measurements.
fn traced(
    ctx: &Ctx,
    state: &mut State,
    designs: &mut rand::rngs::StdRng,
    untraced_ms: f64,
    out: &mut Outcome,
) -> Res<()> {
    let mut tracer = Tracer::new(std::time::Instant::now());
    let (offset, scale) = state.model.output_transform();
    let mut kept = Vec::new();
    let traced_ms = timed_loop(ctx.seconds / 2.0, TRACED_MIN_OPS, |i| {
        let input = branch_row(&floorplan(designs));
        let trace = i as u64;
        let t0 = std::time::Instant::now();
        let request = tracer.begin("serve.request", trace, None);
        let embedding = tracer
            .time("serve.encode", trace, Some(request), || state.engine.encode_branches(&[&input]))
            .map_err(fail("encode"))?;
        let phi = tracer
            .time("core.trunk", trace, Some(request), || {
                state.model.trunk_features_inference(&state.coords)
            })
            .map_err(fail("trunk"))?;
        let field = tracer
            .time("linalg.combine", trace, Some(request), || {
                embedding.features().matmul_transposed_affine(&phi, offset, scale)
            })
            .map_err(fail("combine"))?;
        tracer.end(request);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if i % CHECK_EVERY == 0 {
            kept.push((input, field));
        }
        Ok(ms)
    })?;
    check_fields(state, &kept)?;
    write_trace(ctx, "design_loop", &tracer)?;
    let spans = tracer.spans();
    out.push("serve.encode_ms", "ms", median(&tracer.durations_ms("serve.encode")));
    out.push("core.trunk_ms", "ms", median(&tracer.durations_ms("core.trunk")));
    out.push("linalg.combine_ms", "ms", median(&tracer.durations_ms("linalg.combine")));
    out.push("serve.self_fraction", "fraction", self_fraction(spans, "serve.request"));
    out.push("linalg.trunk_gemm_gflops", "GFLOP/s", trunk_gemm_gflops(state)?);
    out.push("parallel.speedup", "x", pool_speedup(ctx, state)?);
    out.push("bench.trace_overhead", "fraction", mean(&traced_ms) / untraced_ms - 1.0);
    Ok(())
}

/// `Matrix::matmul` at the trunk's hidden-layer shape (mesh points ×
/// width by width × width), in computed GFLOP/s (2·m·k·n per product).
fn trunk_gemm_gflops(state: &State) -> Res<f64> {
    let width = state.model.trunk().layers().last().map_or(128, |l| l.input_dim());
    let m = state.coords.rows();
    let a = Matrix::from_fn(m, width, |i, j| ((i * 31 + j * 17) % 97) as f64 / 97.0 - 0.5);
    let b = Matrix::from_fn(width, width, |i, j| ((i * 13 + j * 7) % 89) as f64 / 89.0 - 0.5);
    let mut ms = Vec::with_capacity(GEMM_REPS);
    for _ in 0..GEMM_REPS {
        let (c, t) = time_ms(|| a.matmul(&b));
        std::hint::black_box(c.map_err(fail("gemm"))?);
        ms.push(t);
    }
    let flops = 2.0 * (m * width * width) as f64;
    Ok(flops / (median(&ms) * 1e-3) / 1e9)
}

/// The same kind of design on a 1-thread pool against the configured
/// pool: median single-thread time over median pooled time.
fn pool_speedup(ctx: &Ctx, state: &mut State) -> Res<f64> {
    let serial = ThreadPool::new(1);
    let mut rng = stream(ctx.seed ^ WARMUP_SALT ^ 1, salt::DESIGNS);
    let (mut one, mut pooled) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        let a = branch_row(&floorplan(&mut rng));
        let b = branch_row(&floorplan(&mut rng));
        let (r, t) = time_ms(|| serial.install(|| state.engine.predict(&[&a], &state.coords)));
        r.map_err(fail("1-thread predict"))?;
        one.push(t);
        let (r, t) = time_ms(|| state.engine.predict(&[&b], &state.coords));
        r.map_err(fail("pooled predict"))?;
        pooled.push(t);
    }
    Ok(median(&one) / median(&pooled))
}
