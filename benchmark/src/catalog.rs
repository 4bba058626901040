//! The metrics `BENCHMARK.json` lists, in print order. Every workload
//! prints every end-to-end metric with `--trace 0` and every per-layer
//! metric with `--trace 1`. A per-layer metric belongs to the workload
//! that calls its layer; a traced run of another workload takes it from a
//! short traced run of its owner.

use crate::{Metric, Res};

/// Who produces a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Every workload.
    All,
    /// Only the named workload.
    Only(&'static str),
}

/// End-to-end metrics: (name, unit). Every workload measures all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p75", "ms"),
    ("slo_fraction", "fraction"),
];

const DESIGN_LOOP: Owner = Owner::Only("design_loop");
const TRAIN: Owner = Owner::Only("train");
const REFERENCE: Owner = Owner::Only("reference");

/// Per-layer metrics: (name, unit, owner).
pub const PER_LAYER: [(&str, &str, Owner); 21] = [
    ("serve.encode_ms", "ms", DESIGN_LOOP),
    ("core.trunk_ms", "ms", DESIGN_LOOP),
    ("linalg.combine_ms", "ms", DESIGN_LOOP),
    ("serve.self_fraction", "fraction", DESIGN_LOOP),
    ("linalg.trunk_gemm_gflops", "GFLOP/s", DESIGN_LOOP),
    ("parallel.speedup", "x", DESIGN_LOOP),
    ("parallel.threads", "count", Owner::All),
    ("grf.sample_ms", "ms", TRAIN),
    ("train.forward_ms", "ms", TRAIN),
    ("train.backward_ms", "ms", TRAIN),
    ("train.adam_ms", "ms", TRAIN),
    ("autodiff.graph_nodes", "count", TRAIN),
    ("train.self_fraction", "fraction", TRAIN),
    ("fdm.cg_iters_per_design", "count", REFERENCE),
    ("fdm.ms_per_cg_iter", "ms", REFERENCE),
    ("fdm.recycle_hit_ratio", "fraction", REFERENCE),
    ("fdm.polished", "count/batch", REFERENCE),
    ("fdm.degraded", "count/batch", REFERENCE),
    ("fdm.single_solve_ms", "ms", REFERENCE),
    ("linalg.spmv_gbytes_per_s", "GB/s", REFERENCE),
    ("bench.trace_overhead", "fraction", Owner::All),
];

/// The owner of the per-layer metric `name`, if the catalogue lists it.
pub fn owner(name: &str) -> Option<Owner> {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|&(_, _, owner)| owner)
}

/// Orders `pushed` as the catalogue of the run's kind does. Errors unless
/// `pushed` holds every metric of that catalogue exactly once, in its
/// unit, and nothing else.
pub fn complete(trace: bool, pushed: &[Metric]) -> Res<Vec<Metric>> {
    let catalogue: Vec<(&'static str, &'static str)> = if trace {
        PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)).collect()
    } else {
        END_TO_END.to_vec()
    };
    if let Some(m) = pushed.iter().find(|m| !catalogue.contains(&(m.name, m.unit))) {
        return Err(format!("metric {} ({}) is not in the catalogue", m.name, m.unit));
    }
    catalogue
        .into_iter()
        .map(|(name, unit)| {
            let mut found = pushed.iter().filter(|m| m.name == name);
            match (found.next(), found.next()) {
                (Some(m), None) => Ok(Metric { name, unit, value: m.value }),
                (None, _) => Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => Err(format!("metric {name} was reported twice")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn catalogue_matches_the_manifest() {
        let listed = END_TO_END.iter().copied().chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)));
        let mut count = 0;
        for (name, unit) in listed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(MANIFEST.contains(&entry), "{name} ({unit}) is not in BENCHMARK.json");
            count += 1;
        }
        let metrics = MANIFEST.matches("\"unit\":").count();
        assert_eq!(metrics, count, "BENCHMARK.json lists metrics the catalogue does not");
    }

    fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }

    #[test]
    fn per_layer_metrics_are_all_required_once() {
        let pushed: Vec<Metric> =
            PER_LAYER.iter().rev().map(|&(name, unit, _)| metric(name, unit, 1.0)).collect();
        let out = complete(true, &pushed).unwrap();
        let names: Vec<&str> = out.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|&(name, _, _)| name).collect();
        assert_eq!(names, listed);
        assert!(complete(true, &pushed[1..]).is_err());
        let mut twice = pushed;
        twice.push(metric(PER_LAYER[0].0, PER_LAYER[0].1, 2.0));
        assert!(complete(true, &twice).is_err());
        assert_eq!(owner("fdm.single_solve_ms"), Some(Owner::Only("reference")));
        assert_eq!(owner("bench.trace_overhead"), Some(Owner::All));
        assert_eq!(owner("setup_s"), None);
    }

    #[test]
    fn end_to_end_metrics_are_all_required() {
        let pushed: Vec<Metric> =
            END_TO_END.iter().map(|&(name, unit)| metric(name, unit, 1.0)).collect();
        assert_eq!(complete(false, &pushed).unwrap().len(), END_TO_END.len());
        assert!(complete(false, &pushed[1..]).is_err());
        let mut wrong_unit = pushed;
        wrong_unit[0] = metric("setup_s", "ms", 1.0);
        assert!(complete(false, &wrong_unit).is_err());
        assert!(complete(true, &wrong_unit).is_err());
    }
}
