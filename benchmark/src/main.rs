//! Seeded benchmark of the DeepOHeat reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <design_loop|train|reference> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints every end-to-end metric, measured with no
//! tracing. With `--trace 1` it measures the same workload untraced and
//! then traced, and reports the difference as tracing overhead. It prints
//! every per-layer metric: those of layers the workload does not call come
//! from a short traced run of the workload that does. The last line of
//! standard output is one JSON object; a failed output check exits
//! non-zero. See `benchmark/README.md` for the workloads and the
//! metric catalogue.

mod catalog;
mod inputs;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Result type of a workload: errors are messages for standard error.
pub type Res<T> = Result<T, String>;

/// Converts any displayable error into a message naming the failed step.
pub fn fail<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Width of the worker pool the program runs on.
    pub threads: usize,
    /// Whether this is a short traced run for another workload's layer
    /// metrics; it writes no span file.
    pub probe: bool,
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (shed, deadline, shard failure, degraded
    /// column, diverged step).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// The result line.
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("read VmHWM"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Writes the traced run's spans next to the benchmark sources, unless
/// the run is a layer probe.
pub fn write_trace(ctx: &Ctx, workload: &str, tracer: &trace::Tracer) -> Res<()> {
    if ctx.probe {
        return Ok(());
    }
    let seed = ctx.seed;
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"));
    tracer.write_jsonl(&path).map_err(fail("write trace"))?;
    eprintln!("trace: {} spans -> {}", tracer.spans().len(), path.display());
    Ok(())
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Res<Args> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(fail("--seed"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(fail("--seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.unwrap_or(0),
            seconds,
            trace: trace.unwrap_or(false),
            threads: 0,
            probe: false,
        },
    })
}

/// Sizes the program's worker pool to the machine before anything uses
/// it, and returns the width it got.
fn pin_pool() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    std::env::set_var(deepoheat_parallel::ENV_NUM_THREADS, cores.to_string());
    deepoheat_parallel::num_threads()
}

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["design_loop", "train", "reference"];

/// Seconds of the short traced run of a workload that a traced run of
/// another workload takes that workload's per-layer metrics from.
const PROBE_SECONDS: f64 = 1.0;

fn run_workload(workload: &str, ctx: &Ctx) -> Res<Outcome> {
    match workload {
        "design_loop" => workloads::design_loop::run(ctx),
        "train" => workloads::train::run(ctx),
        "reference" => workloads::reference::run(ctx),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs `workload`. A traced run then adds the per-layer metrics of the
/// layers it does not call, each from a short traced run of the workload
/// that owns them.
fn measure(workload: &str, ctx: &Ctx) -> Res<Outcome> {
    let mut outcome = run_workload(workload, ctx)?;
    if ctx.trace {
        outcome.push("parallel.threads", "count", ctx.threads as f64);
        for &owner in WORKLOADS.iter().filter(|&&w| w != workload) {
            eprintln!("layer probe: {owner}, {PROBE_SECONDS} s");
            let probe = run_workload(owner, &Ctx { seconds: PROBE_SECONDS, probe: true, ..*ctx })?;
            let owned = |m: &Metric| catalog::owner(m.name) == Some(catalog::Owner::Only(owner));
            outcome.metrics.extend(probe.metrics.into_iter().filter(owned));
        }
    }
    outcome.metrics = catalog::complete(ctx.trace, &outcome.metrics)?;
    match outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is not finite ({})", m.name, m.value)),
        None => Ok(outcome),
    }
}

fn main() -> ExitCode {
    let Args { workload, mut ctx } = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    ctx.threads = pin_pool();
    eprintln!(
        "workload {workload}, seed {}, {} s, trace {}, pool {} thread(s)",
        ctx.seed, ctx.seconds, ctx.trace as u8, ctx.threads
    );
    let result = measure(&workload, &ctx);
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
