//! Second-order jets: value + first + second spatial derivatives.
//!
//! Physics-informed training of DeepOHeat needs `T`, `∂T/∂yᵢ` and
//! `∂²T/∂yᵢ²` at every collocation point *as differentiable functions of
//! the network parameters*. Rather than nesting reverse-mode passes, we
//! propagate a "jet" through the trunk network: the value, the three first
//! derivatives and the three pure second derivatives (mixed second
//! derivatives never appear in the Laplacian or in any of the boundary
//! conditions, so they are not carried).
//!
//! A jet carries only the channels its caller asks for
//! ([`JetChannels`]): the PDE residual needs all seven, a boundary face
//! only the value and the normal derivative. The channels are stacked as
//! row blocks of one graph node, and every layer is one fused op
//! ([`Graph::jet_linear`], [`Graph::jet_activate`]), so one reverse pass
//! over the final loss yields exact parameter gradients of every carried
//! derivative field.

use deepoheat_autodiff::{AutodiffError, Graph, JetChannel, JetChannels, Var};
use deepoheat_linalg::{LinalgError, Matrix};

use crate::NnError;

/// A second-order jet in three spatial dimensions: one stacked graph node
/// holding the carried channels as `points`-row blocks in stacking order
/// ([`JetChannels::iter`]).
#[derive(Debug, Clone, Copy)]
pub struct Jet3 {
    node: Var,
    channels: JetChannels,
    points: usize,
}

impl Jet3 {
    /// Seeds a jet carrying `channels` from a `points × 3` coordinate
    /// matrix.
    ///
    /// The value channel is the coordinates themselves; the
    /// first-derivative channel `i` is the constant matrix with ones in
    /// column `i` (`∂y/∂yᵢ = eᵢ`); second derivatives are zero.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `coords` does not have exactly 3 columns.
    pub fn seed_coordinates(
        graph: &mut Graph,
        coords: &Matrix,
        channels: JetChannels,
    ) -> Result<Jet3, NnError> {
        if coords.cols() != 3 {
            return Err(LinalgError::ShapeMismatch {
                op: "seed_coordinates",
                lhs: coords.shape(),
                rhs: (coords.rows(), 3),
            }
            .into());
        }
        let n = coords.rows();
        let mut stacked = Matrix::zeros(channels.len() * n, 3);
        for (block, channel) in channels.iter().enumerate() {
            let rows = block * n..(block + 1) * n;
            match channel {
                JetChannel::Value => {
                    stacked.as_mut_slice()[rows.start * 3..rows.end * 3]
                        .copy_from_slice(coords.as_slice());
                }
                JetChannel::First(axis) => {
                    for r in rows {
                        stacked[(r, axis)] = 1.0;
                    }
                }
                JetChannel::Second(_) => {}
            }
        }
        let node = graph.jet_leaf(stacked, channels, false)?;
        Ok(Jet3 { node, channels, points: n })
    }

    /// Wraps a stacked jet node of `points` rows per channel.
    pub(crate) fn from_node(node: Var, channels: JetChannels, points: usize) -> Jet3 {
        Jet3 { node, channels, points }
    }

    /// The stacked graph node.
    pub fn node(&self) -> Var {
        self.node
    }

    /// The carried channels.
    pub fn channels(&self) -> JetChannels {
        self.channels
    }

    /// Collocation points (rows per channel).
    pub fn points(&self) -> usize {
        self.points
    }

    /// Copies one channel's `points × features` values out of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::MissingChannel`] (wrapped) if the jet does
    /// not carry `channel`.
    pub fn channel_value(&self, graph: &Graph, channel: JetChannel) -> Result<Matrix, NnError> {
        let block =
            self.channels.block(channel).ok_or(AutodiffError::MissingChannel { channel })?;
        Ok(graph.value(self.node).row_block(block * self.points..(block + 1) * self.points)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_channels_have_expected_values() {
        let mut g = Graph::new();
        let coords = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let jet = Jet3::seed_coordinates(&mut g, &coords, JetChannels::all()).unwrap();
        assert_eq!(jet.channel_value(&g, JetChannel::Value).unwrap(), coords);
        for i in 0..3 {
            let d1 = jet.channel_value(&g, JetChannel::First(i)).unwrap();
            for r in 0..2 {
                for c in 0..3 {
                    assert_eq!(d1[(r, c)], if c == i { 1.0 } else { 0.0 });
                }
            }
            let d2 = jet.channel_value(&g, JetChannel::Second(i)).unwrap();
            assert!(d2.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn seed_requires_three_columns() {
        let mut g = Graph::new();
        let err = Jet3::seed_coordinates(&mut g, &Matrix::zeros(4, 2), JetChannels::all());
        assert!(matches!(err, Err(NnError::Linalg(LinalgError::ShapeMismatch { .. }))));
        assert!(g.is_empty());
    }

    #[test]
    fn face_seed_carries_two_channels_and_rejects_the_rest() {
        let mut g = Graph::new();
        let coords = Matrix::from_rows(&[&[0.1, 0.2, 0.3]]).unwrap();
        let jet = Jet3::seed_coordinates(&mut g, &coords, JetChannels::normal(2)).unwrap();
        assert_eq!(g.value(jet.node()).shape(), (2, 3));
        assert_eq!(
            jet.channel_value(&g, JetChannel::First(2)).unwrap().as_slice(),
            &[0.0, 0.0, 1.0]
        );
        let err = jet.channel_value(&g, JetChannel::Second(2)).unwrap_err();
        assert!(matches!(err, NnError::Autodiff(AutodiffError::MissingChannel { .. })));
    }
}
