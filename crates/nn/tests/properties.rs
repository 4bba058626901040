//! Property-based tests of the network layer: jets vs finite differences
//! of the plain forward pass, and optimiser behaviour.

use deepoheat_autodiff::{Activation, Graph, JetChannel, JetChannels};
use deepoheat_linalg::Matrix;
use deepoheat_nn::{Adam, AdamConfig, FourierFeatures, Jet3, Mlp, MlpConfig};
use proptest::prelude::*;
use rand::SeedableRng;

fn coords(rows: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(0.05f64..0.95, rows * 3)
        .prop_map(move |data| Matrix::from_vec(rows, 3, data).expect("sized by construction"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mlp_jet_matches_finite_differences(seed in 0u64..500, pts in coords(2)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&MlpConfig::new(3, &[10, 10], 1, Activation::Swish), &mut rng).unwrap();
        let h = 1e-4;

        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, &pts, JetChannels::all()).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();

        for row in 0..pts.rows() {
            for axis in 0..3 {
                let mut plus = pts.clone();
                let mut minus = pts.clone();
                plus[(row, axis)] += h;
                minus[(row, axis)] -= h;
                let fp = mlp.forward_inference(&plus).unwrap()[(row, 0)];
                let fm = mlp.forward_inference(&minus).unwrap()[(row, 0)];
                let f0 = mlp.forward_inference(&pts).unwrap()[(row, 0)];
                let fd1 = (fp - fm) / (2.0 * h);
                let fd2 = (fp - 2.0 * f0 + fm) / (h * h);
                let a1 = out.channel_value(&g, JetChannel::First(axis)).unwrap()[(row, 0)];
                let a2 = out.channel_value(&g, JetChannel::Second(axis)).unwrap()[(row, 0)];
                prop_assert!((a1 - fd1).abs() < 1e-5, "d1 axis {axis}: {a1} vs {fd1}");
                prop_assert!((a2 - fd2).abs() < 5e-3, "d2 axis {axis}: {a2} vs {fd2}");
            }
        }
    }

    #[test]
    fn fourier_jet_matches_finite_differences(seed in 0u64..500, pts in coords(1)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ff = FourierFeatures::new(3, 5, 1.5, &mut rng);
        let h = 1e-4;

        let mut g = Graph::new();
        let jet = Jet3::seed_coordinates(&mut g, &pts, JetChannels::all()).unwrap();
        let out = ff.forward_jet(&mut g, &jet).unwrap();
        let f0 = ff.forward_inference(&pts).unwrap();

        for axis in 0..3 {
            let mut plus = pts.clone();
            let mut minus = pts.clone();
            plus[(0, axis)] += h;
            minus[(0, axis)] -= h;
            let fp = ff.forward_inference(&plus).unwrap();
            let fm = ff.forward_inference(&minus).unwrap();
            for c in 0..f0.cols() {
                let fd1 = (fp[(0, c)] - fm[(0, c)]) / (2.0 * h);
                let fd2 = (fp[(0, c)] - 2.0 * f0[(0, c)] + fm[(0, c)]) / (h * h);
                let a1 = out.channel_value(&g, JetChannel::First(axis)).unwrap()[(0, c)];
                let a2 = out.channel_value(&g, JetChannel::Second(axis)).unwrap()[(0, c)];
                prop_assert!((a1 - fd1).abs() < 1e-5);
                prop_assert!((a2 - fd2).abs() < 5e-3);
            }
        }
    }

    #[test]
    fn jet_value_channel_equals_plain_forward(seed in 0u64..500, pts in coords(4)) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&MlpConfig::new(3, &[8, 8], 2, Activation::Tanh), &mut rng).unwrap();
        let plain = mlp.forward_inference(&pts).unwrap();
        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let jet = Jet3::seed_coordinates(&mut g, &pts, JetChannels::all()).unwrap();
        let out = bound.forward_jet(&mut g, &jet).unwrap();
        let value = out.channel_value(&g, JetChannel::Value).unwrap();
        for (a, b) in value.iter().zip(plain.iter()) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn adam_converges_on_random_quadratics(target in proptest::collection::vec(-5.0f64..5.0, 4)) {
        // f(x) = Σ (x - t)², any target: Adam must find it.
        let mut x = Matrix::zeros(1, 4);
        let t = Matrix::from_vec(1, 4, target.clone()).unwrap();
        let mut adam = Adam::new(AdamConfig::with_learning_rate(0.2));
        for _ in 0..600 {
            let grad = Matrix::from_fn(1, 4, |_, c| 2.0 * (x[(0, c)] - t[(0, c)]));
            adam.step_slices(&mut [&mut x], &[&grad]).unwrap();
        }
        for (xi, ti) in x.iter().zip(&target) {
            prop_assert!((xi - ti).abs() < 1e-2, "{xi} vs {ti}");
        }
    }

    #[test]
    fn initialisation_is_seed_deterministic(seed in 0u64..1000) {
        let build = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Mlp::new(&MlpConfig::new(4, &[6], 2, Activation::Swish), &mut rng).unwrap()
        };
        prop_assert_eq!(build(), build());
    }
}
