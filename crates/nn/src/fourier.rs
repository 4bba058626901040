use deepoheat_autodiff::{Activation, Graph, JetChannel, Var};
use deepoheat_linalg::Matrix;
use rand::Rng;

use crate::{normal_matrix, Jet3, NnError};

/// A random Fourier-features mapping `γ(y) = [sin(y B) | cos(y B)]`
/// (Tancik et al. 2020).
///
/// The DeepOHeat trunk net applies this as its first layer so the network
/// can represent the high-frequency content of temperature fields; the
/// paper samples the frequency matrix `B` from `N(0, (2π)²)` in the
/// power-map experiment and `N(0, π²)` in the HTC experiment. `B` is
/// **not trainable**.
///
/// # Examples
///
/// ```
/// use deepoheat_nn::FourierFeatures;
/// use deepoheat_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let ff = FourierFeatures::new(3, 16, std::f64::consts::TAU, &mut rng);
/// let y = Matrix::zeros(5, 3);
/// let z = ff.forward_inference(&y)?;
/// assert_eq!(z.shape(), (5, 32)); // [sin | cos]
/// // sin(0) = 0, cos(0) = 1.
/// assert_eq!(z.row(0)[0], 0.0);
/// assert_eq!(z.row(0)[16], 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FourierFeatures {
    frequencies: Matrix,
}

impl FourierFeatures {
    /// Samples a mapping with `n_frequencies` frequencies for
    /// `input_dim`-dimensional inputs; entries of `B` are `N(0, std²)`.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        n_frequencies: usize,
        std: f64,
        rng: &mut R,
    ) -> Self {
        FourierFeatures { frequencies: normal_matrix(input_dim, n_frequencies, 0.0, std, rng) }
    }

    /// Creates a mapping from an explicit frequency matrix (rows =
    /// input dimension, columns = frequencies).
    pub fn from_frequencies(frequencies: Matrix) -> Self {
        FourierFeatures { frequencies }
    }

    /// Input dimension accepted by the mapping.
    pub fn input_dim(&self) -> usize {
        self.frequencies.rows()
    }

    /// Output dimension produced by the mapping (`2 × n_frequencies`).
    pub fn output_dim(&self) -> usize {
        2 * self.frequencies.cols()
    }

    /// Returns the fixed frequency matrix `B`.
    pub fn frequencies(&self) -> &Matrix {
        &self.frequencies
    }

    /// Graph forward pass: `[sin(x B) | cos(x B)]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying graph operations.
    pub fn forward(&self, graph: &mut Graph, x: Var) -> Result<Var, NnError> {
        let b = graph.leaf(self.frequencies.clone(), false);
        let z = graph.matmul(x, b)?;
        let s = graph.activation(z, Activation::Sine, 0)?;
        let c = graph.activation(z, Activation::Sine, 1)?; // cos = sin'
        Ok(graph.hcat(s, c)?)
    }

    /// Graph forward pass of a second-order jet, for every channel `x`
    /// carries.
    ///
    /// Since `B` is constant, the linear part maps each channel through
    /// `B`; sin/cos then follow the jet activation rules with exact
    /// trigonometric derivatives. The input is a constant coordinate seed,
    /// so the result is computed directly into one constant jet leaf.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidArchitecture`] if `x` requires gradients
    /// (the mapping is only defined on constant coordinate jets), or
    /// propagates shape errors.
    pub fn forward_jet(&self, graph: &mut Graph, x: &Jet3) -> Result<Jet3, NnError> {
        if graph.requires_grad(x.node()) {
            return Err(NnError::InvalidArchitecture {
                what: "Fourier features take a constant coordinate jet".into(),
            });
        }
        let (channels, n) = (x.channels(), x.points());
        let z = graph.value(x.node()).matmul(&self.frequencies)?;
        let f = self.frequencies.cols();
        let first = [0, 1, 2].map(|a| channels.block(JetChannel::First(a)));
        let second = [0, 1, 2].map(|a| channels.block(JetChannel::Second(a)));
        let mut out = Matrix::zeros(z.rows(), 2 * f);
        for r in 0..n {
            for c in 0..f {
                let zv = z[(r, c)];
                let (sin, cos) = (zv.sin(), zv.cos());
                let (neg_sin, neg_cos) = (-sin, -cos);
                out[(r, c)] = sin;
                out[(r, f + c)] = cos;
                for axis in 0..3 {
                    let Some(b1) = first[axis] else { continue };
                    // d/dyᵢ sin(z) = cos(z) zᵢ ; d/dyᵢ cos(z) = -sin(z) zᵢ.
                    let z1 = z[(b1 * n + r, c)];
                    out[(b1 * n + r, c)] = cos * z1;
                    out[(b1 * n + r, f + c)] = neg_sin * z1;
                    // d²/dyᵢ² sin(z) = -sin(z) zᵢ² + cos(z) zᵢᵢ, mirrored for cos.
                    if let Some(b2) = second[axis] {
                        let (z2, z1_sq) = (z[(b2 * n + r, c)], z1 * z1);
                        out[(b2 * n + r, c)] = neg_sin * z1_sq + cos * z2;
                        out[(b2 * n + r, f + c)] = neg_cos * z1_sq + neg_sin * z2;
                    }
                }
            }
        }
        let node = graph.jet_leaf(out, channels, false)?;
        Ok(Jet3::from_node(node, channels, n))
    }

    /// Graph-free forward pass for fast inference.
    ///
    /// # Errors
    ///
    /// Returns an error if `x.cols() != self.input_dim()`.
    pub fn forward_inference(&self, x: &Matrix) -> Result<Matrix, NnError> {
        let z = x.matmul(&self.frequencies)?;
        let s = z.map(f64::sin);
        let c = z.map(f64::cos);
        Ok(s.hcat(&c)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepoheat_autodiff::JetChannels;
    use rand::SeedableRng;

    #[test]
    fn graph_forward_matches_inference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ff = FourierFeatures::new(3, 8, 1.0, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| 0.2 * r as f64 - 0.1 * c as f64);
        let fast = ff.forward_inference(&x).unwrap();

        let mut g = Graph::new();
        let xv = g.leaf(x, false);
        let z = ff.forward(&mut g, xv).unwrap();
        let slow = g.value(z);
        assert_eq!(slow.shape(), fast.shape());
        for (a, b) in slow.iter().zip(fast.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn jet_matches_finite_differences() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let ff = FourierFeatures::new(3, 4, 0.8, &mut rng);
        let coords = Matrix::from_rows(&[&[0.3, -0.2, 0.5]]).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let jet = Jet3::seed_coordinates(&mut g, &coords, JetChannels::all()).unwrap();
        let out = ff.forward_jet(&mut g, &jet).unwrap();
        let channel = |c| out.channel_value(&g, c).unwrap();
        let d1: Vec<Matrix> = (0..3).map(|a| channel(JetChannel::First(a))).collect();
        let d2: Vec<Matrix> = (0..3).map(|a| channel(JetChannel::Second(a))).collect();
        let val = channel(JetChannel::Value);
        assert_eq!(val, ff.forward_inference(&coords).unwrap());

        for axis in 0..3 {
            let mut plus = coords.clone();
            let mut minus = coords.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = ff.forward_inference(&plus).unwrap();
            let fm = ff.forward_inference(&minus).unwrap();
            for idx in 0..val.len() {
                let fd1 = (fp.as_slice()[idx] - fm.as_slice()[idx]) / (2.0 * h);
                let fd2 =
                    (fp.as_slice()[idx] - 2.0 * val.as_slice()[idx] + fm.as_slice()[idx]) / (h * h);
                assert!((d1[axis].as_slice()[idx] - fd1).abs() < 1e-6);
                assert!((d2[axis].as_slice()[idx] - fd2).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn dims_are_consistent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ff = FourierFeatures::new(3, 32, std::f64::consts::PI, &mut rng);
        assert_eq!(ff.input_dim(), 3);
        assert_eq!(ff.output_dim(), 64);
        assert_eq!(ff.frequencies().shape(), (3, 32));
    }

    #[test]
    fn from_frequencies_round_trips() {
        let b = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let ff = FourierFeatures::from_frequencies(b.clone());
        assert_eq!(ff.frequencies(), &b);
        let x = Matrix::from_rows(&[&[0.5]]).unwrap();
        let out = ff.forward_inference(&x).unwrap();
        assert!((out.as_slice()[0] - 0.5f64.sin()).abs() < 1e-15);
        assert!((out.as_slice()[1] - 1.0f64.sin()).abs() < 1e-15);
        assert!((out.as_slice()[2] - 0.5f64.cos()).abs() < 1e-15);
        assert!((out.as_slice()[3] - 1.0f64.cos()).abs() < 1e-15);
    }
}
