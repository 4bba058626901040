//! `train`: physics-informed §V.A training at the CPU-scale defaults,
//! `PowerMapExperiment::train_step` from a seeded start. It exercises GRF
//! sampling, the jet forward pass, backward and Adam, and bypasses the
//! serving and FDM layers.
//!
//! The traced half cannot put spans inside `train_step`, so it replays
//! the same step through the public calls it is made of (GRF sampling,
//! `bind`, `branch_product`, `trunk_jet`, `combine_jet`, the `physics`
//! residuals, `Graph::backward`, `Adam::step_model`) with a span around
//! each layer, and checks that the replay reproduces `train_step`'s loss
//! bits.

use deepoheat::experiments::{PowerMapExperiment, PowerMapExperimentConfig};
use deepoheat::physics::{self, HtcInput, PhysicsScales};
use deepoheat::{DeepOHeat, DeepOHeatConfig};
use deepoheat_autodiff::Graph;
use deepoheat_chip::{Chip, MeshPartition};
use deepoheat_fdm::Face;
use deepoheat_grf::GaussianRandomField;
use deepoheat_linalg::Matrix;
use deepoheat_nn::{Adam, AdamConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    min_ops, rebuilt_loop, section_va_chip, slo_fraction, supported, tail_p75, time_ms, timed_loop,
    SETUP_REPEATS, TRACED_MIN_OPS,
};
use crate::stats::{mean, median};
use crate::trace::{self_fraction, Tracer};
use crate::{fail, peak_rss_mb, write_trace, Ctx, Outcome, Res};

/// A step meets the SLO when it finishes within this many ms, about four
/// times the 63–128 ms a step took when the workload was defined.
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// Steps an untraced run must reach: two blocks of the blocked p75.
const MIN_STEPS: usize = 100;
/// Warm-up steps taken in every setup; their losses must repeat exactly
/// across setups of the same seed.
const WARMUP_STEPS: usize = 2;

fn config(seed: u64) -> PowerMapExperimentConfig {
    PowerMapExperimentConfig { seed, ..PowerMapExperimentConfig::default() }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Res<Outcome> {
    let mut warmup_losses: Vec<Vec<u64>> = Vec::new();
    let build = || {
        let mut experiment = PowerMapExperiment::new(config(ctx.seed)).map_err(fail("setup"))?;
        let mut losses = Vec::with_capacity(WARMUP_STEPS);
        for _ in 0..WARMUP_STEPS {
            losses.push(experiment.train_step().map_err(fail("warm-up step"))?.to_bits());
        }
        warmup_losses.push(losses);
        Ok(experiment)
    };
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let mut losses = Vec::new();
    let mut ok_ms = Vec::new();
    let mut failed = 0u64;
    let (_, setup_s, step_ms) =
        rebuilt_loop(seconds, min_ops(ctx, MIN_STEPS), build, |experiment, _| {
            let (loss, ms) = time_ms(|| experiment.train_step());
            match loss {
                Ok(loss) => {
                    losses.push(loss);
                    ok_ms.push(ms);
                }
                Err(deepoheat::DeepOHeatError::Diverged { .. }) => failed += 1,
                Err(e) => return Err(format!("train_step: {e}")),
            }
            Ok(ms)
        })?;
    if warmup_losses.windows(2).any(|w| w[0] != w[1]) {
        return Err("train: repeated setups of one seed gave different loss bits".into());
    }
    eprintln!("check: {SETUP_REPEATS} setups reproduced the warm-up loss bits");
    if let Some(bad) = losses.iter().find(|l| !l.is_finite()) {
        return Err(format!("train: non-finite loss {bad}"));
    }
    let mut out = Outcome { attempted: step_ms.len() as u64, failed, metrics: Vec::new() };
    if ctx.trace {
        traced(ctx, mean(&step_ms), &mut out)?;
        return Ok(out);
    }
    out.push("setup_s", "s", setup_s);
    out.push("peak_rss_mb", "MiB", peak_rss_mb()?);
    out.push("ops_per_s", "1/s", 1e3 / median(&step_ms));
    out.push("op_ms.p50", "ms", supported(&step_ms, 500, "step_ms")?);
    out.push("op_ms.p75", "ms", tail_p75(&step_ms, "step_ms")?);
    out.push("slo_fraction", "fraction", slo_fraction(&ok_ms, LATENCY_LIMIT_MS, step_ms.len()));
    Ok(out)
}

/// The traced half: a replay from the same seed, checked against
/// `train_step` loss bits, with per-layer spans.
fn traced(ctx: &Ctx, untraced_ms: f64, out: &mut Outcome) -> Res<()> {
    let mut reference = PowerMapExperiment::new(config(ctx.seed)).map_err(fail("setup"))?;
    let mut replay = Replay::new(config(ctx.seed))?;
    let mut tracer = Tracer::new(std::time::Instant::now());
    let mut nodes = Vec::new();
    let step_ms = timed_loop(ctx.seconds / 2.0, TRACED_MIN_OPS, |i| {
        let t0 = std::time::Instant::now();
        let (loss, graph_nodes) = replay.step(&mut tracer, i as u64)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        nodes.push(graph_nodes as f64);
        if i < WARMUP_STEPS {
            let expected = reference.train_step().map_err(fail("reference step"))?;
            if loss.to_bits() != expected.to_bits() {
                return Err(format!("train: replay step {i} loss {loss} != train_step {expected}"));
            }
        }
        Ok(ms)
    })?;
    eprintln!("check: traced replay reproduced the first {WARMUP_STEPS} train_step losses");
    write_trace(ctx, "train", &tracer)?;
    let per_step = |name: &str| median(&tracer.durations_ms(name));
    out.push("grf.sample_ms", "ms", per_step("grf.sample"));
    out.push("train.forward_ms", "ms", per_step("train.forward"));
    out.push("train.backward_ms", "ms", per_step("train.backward"));
    out.push("train.adam_ms", "ms", per_step("train.adam"));
    out.push("autodiff.graph_nodes", "count", median(&nodes));
    out.push("train.self_fraction", "fraction", self_fraction(tracer.spans(), "train.step"));
    out.push("bench.trace_overhead", "fraction", mean(&step_ms) / untraced_ms - 1.0);
    Ok(())
}

/// The §V.A physics-informed step rebuilt from public calls, in the same
/// order and with the same random draws as `PowerMapExperiment`.
struct Replay {
    config: PowerMapExperimentConfig,
    chip: Chip,
    partition: MeshPartition,
    grf: GaussianRandomField,
    model: DeepOHeat,
    adam: Adam,
    scales: PhysicsScales,
    coords: Matrix,
    rng: StdRng,
}

impl Replay {
    fn new(config: PowerMapExperimentConfig) -> Res<Self> {
        let chip = section_va_chip(&config)?;
        let partition = MeshPartition::new(chip.grid());
        let grf = GaussianRandomField::on_unit_grid(config.nx, config.grf_length_scale)
            .map_err(fail("grf"))?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model_cfg = DeepOHeatConfig::single_branch(
            config.nx * config.ny,
            &config.branch_hidden,
            &config.trunk_hidden,
            config.latent_dim,
        )
        .with_output_transform(config.ambient, config.delta_t)
        .with_trunk_activation(config.activation);
        model_cfg.branches[0].activation = config.activation;
        model_cfg.fourier = config.fourier;
        let model = DeepOHeat::new(&model_cfg, &mut rng).map_err(fail("model"))?;
        let scales = PhysicsScales::new(
            config.conductivity,
            config.delta_t,
            [config.lx, config.ly, config.lz],
        )
        .map_err(fail("scales"))?;
        let coords = chip.grid().node_positions_normalized();
        let adam = Adam::new(AdamConfig::with_schedule(config.schedule));
        Ok(Replay { config, chip, partition, grf, model, adam, scales, coords, rng })
    }

    fn subsample(&mut self, pool: &[usize], count: Option<usize>) -> Vec<usize> {
        match count {
            Some(c) if c < pool.len() => {
                (0..c).map(|_| pool[self.rng.gen_range(0..pool.len())]).collect()
            }
            _ => pool.to_vec(),
        }
    }

    fn face_points(&mut self, faces: &[Face], per_face: Option<usize>) -> Vec<usize> {
        let pool: Vec<usize> =
            faces.iter().flat_map(|f| self.partition.face(*f).iter().copied()).collect();
        self.subsample(&pool, per_face.map(|c| c * faces.len()))
    }

    /// One step; returns the loss and the graph's node count.
    fn step(&mut self, tracer: &mut Tracer, trace: u64) -> Res<(f64, usize)> {
        let step = tracer.begin("train.step", trace, None);
        let n = self.config.functions_per_batch;
        let sensors = self.config.nx * self.config.ny;
        let power = tracer.time("grf.sample", trace, Some(step), || {
            let mut batch = Matrix::zeros(n, sensors);
            for f in 0..n {
                batch.row_mut(f).copy_from_slice(&self.grf.sample(&mut self.rng)?);
            }
            Ok::<_, deepoheat_grf::GrfError>(batch)
        });
        let power = power.map_err(fail("grf sample"))?;

        let interior_pool = self.partition.interior().to_vec();
        let interior = self.subsample(&interior_pool, self.config.interior_points);
        let top = self.face_points(&[Face::ZMax], self.config.boundary_points);
        let bottom = self.face_points(&[Face::ZMin], self.config.boundary_points);
        let x_sides = self.face_points(&[Face::XMin, Face::XMax], self.config.boundary_points);
        let y_sides = self.face_points(&[Face::YMin, Face::YMax], self.config.boundary_points);
        let unit_flux = self.chip.unit_flux_density();
        let grid = *self.chip.grid();
        let flux_targets = Matrix::from_fn(n, top.len(), |f, p| {
            let (i, j, _) = grid.coordinates(top[p]);
            power[(f, i * self.config.ny + j)] * unit_flux
        });

        let mut graph = Graph::new();
        let forward = tracer.begin("train.forward", trace, Some(step));
        let (bound, total) = self
            .forward(
                &mut graph,
                power,
                [&interior, &top, &bottom, &x_sides, &y_sides],
                &flux_targets,
            )
            .map_err(fail("forward"))?;
        tracer.end(forward);
        let loss = graph.scalar(total);
        if !loss.is_finite() {
            return Err(format!("train: replay loss {loss} is not finite"));
        }
        let nodes = graph.len();
        let grads = tracer.time("train.backward", trace, Some(step), || graph.backward(total));
        let grads = grads.map_err(fail("backward"))?;
        let adam = tracer.time("train.adam", trace, Some(step), || {
            self.adam.step_model(&mut self.model, &bound, &grads)
        });
        adam.map_err(fail("adam"))?;
        tracer.end(step);
        Ok((loss, nodes))
    }

    /// Eq. (11): weighted PDE, flux, convection and adiabatic residuals.
    fn forward(
        &self,
        graph: &mut Graph,
        power: Matrix,
        [interior, top, bottom, x_sides, y_sides]: [&[usize]; 5],
        flux_targets: &Matrix,
    ) -> Result<(deepoheat::BoundDeepOHeat, deepoheat_autodiff::Var), deepoheat::DeepOHeatError>
    {
        let w = self.config.loss_weights;
        let bound = self.model.bind(graph);
        let branch = bound.branch_product(graph, &[power])?;
        let jet_at = |graph: &mut Graph, rows: &[usize]| {
            let jet = bound.trunk_jet(graph, &self.coords.select_rows(rows))?;
            bound.combine_jet(graph, branch, &jet)
        };
        let t = jet_at(graph, interior)?;
        let r = physics::pde_residual(graph, &t, &self.scales, None)?;
        let l_pde = graph.mean_square(r)?;
        let t = jet_at(graph, top)?;
        let r = physics::flux_residual(graph, &t, Face::ZMax, &self.scales, flux_targets)?;
        let l_flux = graph.mean_square(r)?;
        let t = jet_at(graph, bottom)?;
        let htc = HtcInput::Uniform(self.config.htc_bottom);
        let r = physics::convection_residual(graph, &t, Face::ZMin, &self.scales, &htc)?;
        let l_conv = graph.mean_square(r)?;
        let t = jet_at(graph, x_sides)?;
        let r = physics::adiabatic_residual(graph, &t, Face::XMin)?;
        let l_adia_x = graph.mean_square(r)?;
        let t = jet_at(graph, y_sides)?;
        let r = physics::adiabatic_residual(graph, &t, Face::YMin)?;
        let l_adia_y = graph.mean_square(r)?;
        let mut total = graph.scale(l_pde, w.pde)?;
        for (term, weight) in [
            (l_flux, w.flux),
            (l_conv, w.convection),
            (l_adia_x, w.adiabatic),
            (l_adia_y, w.adiabatic),
        ] {
            let scaled = graph.scale(term, weight)?;
            total = graph.add(total, scaled)?;
        }
        Ok((bound, total))
    }
}
