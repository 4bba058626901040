//! The fused jet ops against the per-channel composition they replace.
//!
//! [`Graph::jet_linear`] and [`Graph::jet_activate`] must give the same
//! bits as building every channel as its own node: `matmul` (+ bias) per
//! channel for a dense layer, and three `activation` nodes plus per-channel
//! `mul`/`square`/`add` nodes for an activation. That composition is the
//! oracle here; it lives only in this file.
//!
//! Every case compares, with `to_bits`, each output channel, the loss and
//! every parameter gradient, for Swish, Tanh and Sine, for the full
//! channel set and each face's set (propagated on its own, and read from a
//! full jet), at pool widths 1, 2 and 4. The shapes span several `KC`
//! slabs of the weight-gradient product and several elementwise chunks.

use deepoheat_autodiff::{check_gradients, Activation, Graph, JetChannel, JetChannels, Var};
use deepoheat_linalg::Matrix;
use deepoheat_nn::{BoundParameters, Jet3, Mlp, MlpConfig};
use deepoheat_parallel::ThreadPool;
use rand::{Rng, SeedableRng};

/// A jet with one graph node per channel.
struct OracleJet {
    value: Var,
    d1: [Var; 3],
    d2: [Var; 3],
}

impl OracleJet {
    fn channel(&self, c: JetChannel) -> Var {
        match c {
            JetChannel::Value => self.value,
            JetChannel::First(a) => self.d1[a],
            JetChannel::Second(a) => self.d2[a],
        }
    }
}

/// Seven leaves: the coordinates, the unit vectors `eᵢ` and zeros.
fn oracle_seed(g: &mut Graph, coords: &Matrix) -> OracleJet {
    let n = coords.rows();
    let value = g.leaf(coords.clone(), false);
    let mut d1 = [value; 3];
    let mut d2 = [value; 3];
    for i in 0..3 {
        d1[i] = g.leaf(Matrix::from_fn(n, 3, |_, c| if c == i { 1.0 } else { 0.0 }), false);
        d2[i] = g.leaf(Matrix::zeros(n, 3), false);
    }
    OracleJet { value, d1, d2 }
}

/// A dense layer channel by channel: `x W + b` on the value, `x_c W` on
/// each derivative channel.
fn oracle_dense(g: &mut Graph, w: Var, b: Var, x: &OracleJet) -> OracleJet {
    let z = g.matmul(x.value, w).unwrap();
    let value = g.add_row_broadcast(z, b).unwrap();
    let mut d1 = [value; 3];
    let mut d2 = [value; 3];
    for i in 0..3 {
        d1[i] = g.matmul(x.d1[i], w).unwrap();
        d2[i] = g.matmul(x.d2[i], w).unwrap();
    }
    OracleJet { value, d1, d2 }
}

/// The Faà di Bruno rules from primitive nodes:
/// `a = σ(z)`, `aᵢ = σ'(z) zᵢ`, `aᵢᵢ = σ''(z) zᵢ² + σ'(z) zᵢᵢ`.
fn oracle_activation(g: &mut Graph, act: Activation, z: &OracleJet) -> OracleJet {
    let a0 = g.activation(z.value, act, 0).unwrap();
    let a1 = g.activation(z.value, act, 1).unwrap();
    let a2 = g.activation(z.value, act, 2).unwrap();
    let mut d1 = [a0; 3];
    let mut d2 = [a0; 3];
    for i in 0..3 {
        d1[i] = g.mul(a1, z.d1[i]).unwrap();
        let zi_sq = g.square(z.d1[i]).unwrap();
        let t1 = g.mul(a2, zi_sq).unwrap();
        let t2 = g.mul(a1, z.d2[i]).unwrap();
        d2[i] = g.add(t1, t2).unwrap();
    }
    OracleJet { value: a0, d1, d2 }
}

/// The bits of one case: the loss, each read channel's values and the
/// gradient of every parameter (trunk layers, then the branch leaf).
#[derive(Debug, PartialEq)]
struct Bits {
    loss: u64,
    channels: Vec<Vec<u64>>,
    grads: Vec<Vec<u64>>,
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

/// `Σ_c w_c · mean((B Φ_cᵀ)²)` over the read channels, as the combine
/// and the physics losses build it.
fn loss_over(g: &mut Graph, combined: Vec<Var>) -> Var {
    let mut total: Option<Var> = None;
    for (k, t) in combined.into_iter().enumerate() {
        let ms = g.mean_square(t).unwrap();
        let term = g.scale(ms, 1.0 + 0.5 * k as f64).unwrap();
        total = Some(match total {
            Some(acc) => g.add(acc, term).unwrap(),
            None => term,
        });
    }
    total.unwrap()
}

fn finish(g: &Graph, loss: Var, channels: Vec<Var>, params: Vec<Var>) -> Bits {
    let grads = g.backward(loss).unwrap();
    Bits {
        loss: g.scalar(loss).to_bits(),
        channels: channels.iter().map(|&c| bits(g.value(c))).collect(),
        grads: params.iter().map(|&p| bits(grads.get(p).unwrap())).collect(),
    }
}

struct Case {
    mlp: Mlp,
    coords: Matrix,
    branch: Matrix,
}

fn case(act: Activation, seed: u64) -> Case {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mlp = Mlp::new(&MlpConfig::new(3, &[24, 24], 16, act), &mut rng).unwrap();
    let coords = Matrix::from_fn(520, 3, |_, _| rng.gen_range(0.0..1.0));
    let branch = Matrix::from_fn(3, 16, |_, _| rng.gen_range(-1.0..1.0));
    Case { mlp, coords, branch }
}

/// The oracle: all seven channels built from primitive nodes, `read`
/// combined into the loss.
fn oracle(case: &Case, read: JetChannels) -> Bits {
    let mut g = Graph::new();
    let params = case.mlp.bind(&mut g).parameter_vars();
    let branch = g.leaf(case.branch.clone(), true);
    let mut h = oracle_seed(&mut g, &case.coords);
    let layers: Vec<(Var, Var)> = params.chunks(2).map(|p| (p[0], p[1])).collect();
    for (k, &(w, b)) in layers.iter().enumerate() {
        if k > 0 {
            h = oracle_activation(&mut g, case.mlp.activation(), &h);
        }
        h = oracle_dense(&mut g, w, b, &h);
    }
    let combined: Vec<Var> =
        read.iter().map(|c| g.matmul_transposed(branch, h.channel(c)).unwrap()).collect();
    let loss = loss_over(&mut g, combined.clone());
    finish(&g, loss, combined, params.into_iter().chain([branch]).collect())
}

/// The fused ops: `propagate` carried through `BoundMlp::forward_jet`,
/// `read` combined into the loss.
fn fused(case: &Case, propagate: JetChannels, read: JetChannels) -> Bits {
    let mut g = Graph::new();
    let bound = case.mlp.bind(&mut g);
    let branch = g.leaf(case.branch.clone(), true);
    let seed = Jet3::seed_coordinates(&mut g, &case.coords, propagate).unwrap();
    let out = bound.forward_jet(&mut g, &seed).unwrap();
    let combined: Vec<Var> =
        read.iter().map(|c| g.matmul_transposed_channel(branch, out.node(), c).unwrap()).collect();
    let loss = loss_over(&mut g, combined.clone());
    finish(&g, loss, combined, bound.parameter_vars().into_iter().chain([branch]).collect())
}

const ACTIVATIONS: [Activation; 3] = [Activation::Swish, Activation::Tanh, Activation::Sine];

/// `(propagated, read)` channel sets: the full jet, each face's jet, and
/// each face's channels read from a full jet.
fn channel_cases() -> Vec<(JetChannels, JetChannels)> {
    let mut cases = vec![(JetChannels::all(), JetChannels::all())];
    for axis in 0..3 {
        cases.push((JetChannels::normal(axis), JetChannels::normal(axis)));
        cases.push((JetChannels::all(), JetChannels::normal(axis)));
    }
    cases
}

#[test]
fn fused_jets_are_bit_identical_to_the_primitive_composition() {
    for (k, act) in ACTIVATIONS.into_iter().enumerate() {
        let case = case(act, 40 + k as u64);
        for (propagate, read) in channel_cases() {
            let expected = oracle(&case, read);
            for threads in [1, 2, 4] {
                let got = ThreadPool::new(threads).install(|| fused(&case, propagate, read));
                assert!(
                    got == expected,
                    "{act}, propagate {propagate}, read {read}, {threads} threads: bits differ"
                );
            }
        }
    }
}

#[test]
fn every_full_jet_channel_matches_the_oracle() {
    for (k, act) in ACTIVATIONS.into_iter().enumerate() {
        let case = case(act, 50 + k as u64);
        let mut g = Graph::new();
        let params = case.mlp.bind(&mut g).parameter_vars();
        let mut h = oracle_seed(&mut g, &case.coords);
        for (k, p) in params.chunks(2).enumerate() {
            if k > 0 {
                h = oracle_activation(&mut g, act, &h);
            }
            h = oracle_dense(&mut g, p[0], p[1], &h);
        }
        let mut f = Graph::new();
        let bound = case.mlp.bind(&mut f);
        let seed = Jet3::seed_coordinates(&mut f, &case.coords, JetChannels::all()).unwrap();
        let out = bound.forward_jet(&mut f, &seed).unwrap();
        for c in JetChannels::all().iter() {
            let fused = out.channel_value(&f, c).unwrap();
            assert_eq!(bits(&fused), bits(g.value(h.channel(c))), "{act} channel {c}");
        }
    }
}

#[test]
fn fused_jet_gradients_match_finite_differences() {
    let coords =
        Matrix::from_rows(&[&[0.1, 0.7, 0.4], &[0.8, 0.2, 0.5], &[0.3, 0.3, 0.9]]).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut m = |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.gen_range(-0.8..0.8));
    let (w1, b1, w2, b2, a) = (m(3, 4), m(1, 4), m(4, 2), m(1, 2), m(2, 2));
    let mut tmp = Graph::new();
    let seed = Jet3::seed_coordinates(&mut tmp, &coords, JetChannels::all()).unwrap();
    let seed_value = tmp.value(seed.node()).clone();
    for act in ACTIVATIONS {
        let report = check_gradients(&[w1.clone(), b1.clone(), w2.clone(), b2.clone()], |g, p| {
            let seed = g.jet_leaf(seed_value.clone(), JetChannels::all(), false)?;
            let z = g.jet_linear(seed, p[0], p[1])?;
            let h = g.jet_activate(z, act)?;
            let y = g.jet_linear(h, p[2], p[3])?;
            let a = g.leaf(a.clone(), false);
            let mut total: Option<Var> = None;
            for c in JetChannels::all().iter() {
                let t = g.matmul_transposed_channel(a, y, c)?;
                let term = g.mean_square(t)?;
                total = Some(match total {
                    Some(acc) => g.add(acc, term)?,
                    None => term,
                });
            }
            Ok(total.unwrap())
        })
        .unwrap();
        assert!(report.passes(1e-5), "{act}: {report:?}");
    }
}

#[test]
fn jet_ops_reject_plain_nodes_and_missing_channels() {
    let mut g = Graph::new();
    let plain = g.leaf(Matrix::zeros(2, 3), false);
    let w = g.leaf(Matrix::zeros(3, 2), true);
    let b = g.leaf(Matrix::zeros(1, 2), true);
    assert!(g.jet_linear(plain, w, b).is_err());
    assert!(g.jet_activate(plain, Activation::Swish).is_err());
    let coords = Matrix::zeros(2, 3);
    let face = Jet3::seed_coordinates(&mut g, &coords, JetChannels::normal(0)).unwrap();
    let y = g.jet_linear(face.node(), w, b).unwrap();
    let a = g.leaf(Matrix::zeros(1, 2), false);
    assert!(g.matmul_transposed_channel(a, y, JetChannel::First(0)).is_ok());
    let err = g.matmul_transposed_channel(a, y, JetChannel::Second(0)).unwrap_err();
    assert!(err.to_string().contains("not propagated"), "{err}");
    assert!(g.jet_leaf(Matrix::zeros(3, 3), JetChannels::normal(1), false).is_err());
}
