//! Stacked second-order jets and the arithmetic of the fused jet ops.
//!
//! Physics-informed training propagates a *jet* through the trunk network:
//! the value, the three first derivatives `∂/∂yᵢ` and the three pure second
//! derivatives `∂²/∂yᵢ²` of every feature. A jet node stores the channels it
//! carries as equal row blocks of one matrix (`channels × points` rows), in
//! the fixed order value, ∂₁, ∂₁₁, ∂₂, ∂₂₂, ∂₃, ∂₃₃. A residual that reads
//! only some channels asks for only those (plus what they depend on), so a
//! boundary face carries 2 channels instead of 7.
//!
//! [`Graph::jet_linear`](crate::Graph::jet_linear) and
//! [`Graph::jet_activate`](crate::Graph::jet_activate) are single graph
//! ops over every carried channel. Their forward values and their
//! gradients are bit-identical to the per-channel composition of
//! `matmul`/`add_row_broadcast`/`activation`/`mul`/`square`/`add` nodes
//! they replace: rows are independent, and the backward adds every
//! contribution in the order that composition's tape would.

use std::fmt;
use std::ops::Range;

use deepoheat_linalg::Matrix;
use deepoheat_parallel as parallel;

use crate::Activation;

/// One channel of a second-order jet in three spatial dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JetChannel {
    /// The value itself.
    Value,
    /// The first derivative `∂/∂yᵢ` along axis `i` (`0..3`).
    First(usize),
    /// The pure second derivative `∂²/∂yᵢ²` along axis `i` (`0..3`).
    Second(usize),
}

impl JetChannel {
    /// Position in the canonical channel order, `None` for an axis ≥ 3.
    fn slot(self) -> Option<usize> {
        match self {
            JetChannel::Value => Some(0),
            JetChannel::First(axis) if axis < 3 => Some(1 + 2 * axis),
            JetChannel::Second(axis) if axis < 3 => Some(2 + 2 * axis),
            _ => None,
        }
    }

    fn from_slot(slot: usize) -> JetChannel {
        match slot {
            0 => JetChannel::Value,
            s if s % 2 == 1 => JetChannel::First(s / 2),
            s => JetChannel::Second(s / 2 - 1),
        }
    }
}

impl fmt::Display for JetChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JetChannel::Value => f.write_str("value"),
            JetChannel::First(axis) => write!(f, "d/dy{}", axis + 1),
            JetChannel::Second(axis) => write!(f, "d2/dy{}2", axis + 1),
        }
    }
}

/// Number of channels in a full jet.
const SLOTS: usize = 7;

/// The set of channels a jet carries.
///
/// Every set contains the value, and a second derivative always comes with
/// the first derivative along the same axis: the chain rule needs both to
/// propagate it.
///
/// # Examples
///
/// ```
/// use deepoheat_autodiff::{JetChannel, JetChannels};
///
/// let face = JetChannels::normal(2);
/// assert_eq!(face.len(), 2);
/// assert_eq!(face.block(JetChannel::First(2)), Some(1));
/// assert_eq!(face.block(JetChannel::Second(2)), None);
/// assert_eq!(JetChannels::all().len(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JetChannels {
    mask: u8,
}

impl JetChannels {
    /// All seven channels: what the Laplacian of a PDE residual needs.
    pub const fn all() -> JetChannels {
        JetChannels { mask: (1 << SLOTS) - 1 }
    }

    /// The value and the first derivative along `axis`: what a boundary
    /// residual on a face with that normal axis reads. An axis ≥ 3 gives
    /// the value alone.
    pub fn normal(axis: usize) -> JetChannels {
        let first = JetChannel::First(axis).slot().map_or(0, |s| 1 << s);
        JetChannels { mask: 1 | first }
    }

    /// Number of carried channels.
    #[allow(clippy::len_without_is_empty)] // never empty: the value is always carried
    pub fn len(self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Row-block index of `channel` in a stacked jet, `None` if it is not
    /// carried.
    pub fn block(self, channel: JetChannel) -> Option<usize> {
        let slot = channel.slot().filter(|&s| self.has_slot(s))?;
        Some((self.mask & ((1 << slot) - 1)).count_ones() as usize)
    }

    /// The carried channels in stacking order.
    pub fn iter(self) -> impl Iterator<Item = JetChannel> {
        (0..SLOTS).filter(move |&s| self.has_slot(s)).map(JetChannel::from_slot)
    }

    fn has_slot(self, slot: usize) -> bool {
        self.mask & (1 << slot) != 0
    }
}

impl fmt::Display for JetChannels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = self.iter().map(|c| c.to_string()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

/// Elements per pooled job of the elementwise jet kernels.
const JET_CHUNK: usize = 8 * 1024;

/// Splits `out` into `blocks` equal row blocks and runs
/// `f(range, pieces)` for fixed chunks of element indices on the pool,
/// where `pieces[b]` is block `b` restricted to `range`. Elementwise
/// kernels only, so the result is independent of the partition.
fn par_block_chunks<F>(out: &mut [f64], blocks: usize, f: F)
where
    F: Fn(Range<usize>, &mut [&mut [f64]]) + Sync,
{
    let len = out.len() / blocks.max(1);
    if len == 0 {
        return;
    }
    let mut per_block: Vec<_> = out.chunks_mut(len).map(|b| b.chunks_mut(JET_CHUNK)).collect();
    let f = &f;
    let jobs: Vec<parallel::Job<'_>> = (0..len.div_ceil(JET_CHUNK))
        .map(|j| {
            let mut pieces: Vec<&mut [f64]> =
                per_block.iter_mut().filter_map(Iterator::next).collect();
            let start = j * JET_CHUNK;
            let end = start + pieces.first().map_or(0, |p| p.len());
            Box::new(move || f(start..end, &mut pieces)) as parallel::Job<'_>
        })
        .collect();
    parallel::run_scope(jobs);
}

/// Block indices of the channels of a jet activation, per axis.
struct AxisBlocks {
    first: [Option<usize>; 3],
    second: [Option<usize>; 3],
}

impl AxisBlocks {
    fn new(channels: JetChannels) -> AxisBlocks {
        AxisBlocks {
            first: [0, 1, 2].map(|a| channels.block(JetChannel::First(a))),
            second: [0, 1, 2].map(|a| channels.block(JetChannel::Second(a))),
        }
    }
}

/// `z · W` over every stacked channel, plus the bias on the value block
/// (the first `points` rows).
pub(crate) fn linear_forward(
    x: &Matrix,
    w: &Matrix,
    bias: &Matrix,
    points: usize,
) -> Result<Matrix, deepoheat_linalg::LinalgError> {
    let mut y = x.matmul(w)?;
    if bias.rows() != 1 || bias.cols() != y.cols() {
        return Err(deepoheat_linalg::LinalgError::ShapeMismatch {
            op: "jet_linear",
            lhs: y.shape(),
            rhs: bias.shape(),
        });
    }
    for r in 0..points {
        for (v, &b) in y.row_mut(r).iter_mut().zip(bias.as_slice()) {
            *v += b;
        }
    }
    Ok(y)
}

/// Forward of the jet activation (Faà di Bruno, per element):
///
/// ```text
/// a   = σ(z)
/// aᵢ  = σ'(z) zᵢ
/// aᵢᵢ = σ''(z) zᵢ² + σ'(z) zᵢᵢ
/// ```
///
/// Each chunk evaluates `σ, σ', σ''` once per element, then runs one
/// plain loop per carried derivative channel.
pub(crate) fn activate_forward(z: &Matrix, channels: JetChannels, act: Activation) -> Matrix {
    let blocks = channels.len();
    let len = z.len() / blocks;
    let axes = AxisBlocks::new(channels);
    let zs = z.as_slice();
    let mut out = Matrix::zeros(z.rows(), z.cols());
    par_block_chunks(out.as_mut_slice(), blocks, |range, out| {
        let at = |b: usize| &zs[b * len + range.start..b * len + range.end];
        let (mut s1, mut s2) = (vec![0.0; range.len()], vec![0.0; range.len()]);
        for (j, &x) in at(0).iter().enumerate() {
            let [d0, d1, d2, _] = act.jet_derivatives(x);
            (out[0][j], s1[j], s2[j]) = (d0, d1, d2);
        }
        for axis in 0..3 {
            let Some(b1) = axes.first[axis] else { continue };
            let z1 = at(b1);
            for ((o, &s1), &z1) in out[b1].iter_mut().zip(&s1).zip(z1) {
                *o = s1 * z1;
            }
            if let Some(b2) = axes.second[axis] {
                let z2 = at(b2);
                for (j, o) in out[b2].iter_mut().enumerate() {
                    *o = s2[j] * (z1[j] * z1[j]) + s1[j] * z2[j];
                }
            }
        }
    });
    out
}

/// `dst += term` elementwise, or `dst = term` while `*set` is false: the
/// first contribution is stored, never added to zero. Then sets `*set`.
#[inline(always)]
fn accumulate(dst: &mut [f64], set: &mut bool, term: impl Fn(usize) -> f64) {
    if *set {
        for (j, v) in dst.iter_mut().enumerate() {
            *v += term(j);
        }
    } else {
        for (j, v) in dst.iter_mut().enumerate() {
            *v = term(j);
        }
    }
    *set = true;
}

/// Backward of [`activate_forward`]: the gradient with respect to the
/// input jet, given the output gradient `g` whose `present` blocks carry
/// values. Returns the input gradient and its present-block mask.
///
/// Per element this adds exactly the terms, in exactly the order, that
/// reverse-mode over the per-channel composition adds: axes last to first,
/// `∂ᵢᵢ` before `∂ᵢ` within an axis, then the `σ'''`, `σ''` and `σ'` terms
/// into the value. A term whose output channel received no gradient is
/// skipped.
pub(crate) fn activate_backward(
    z: &Matrix,
    g: &Matrix,
    present: u8,
    channels: JetChannels,
    act: Activation,
) -> (Matrix, u8) {
    let blocks = channels.len();
    let len = z.len() / blocks;
    let axes = AxisBlocks::new(channels);
    let has = |b: Option<usize>| b.filter(|&b| present & (1 << b) != 0);
    let g_first = axes.first.map(has);
    let g_second = axes.second.map(has);
    let g_value = has(Some(0)).is_some();

    let mut out_mask = 0u8;
    for axis in 0..3 {
        if let Some(b2) = g_second[axis] {
            out_mask |= 1 << b2;
        }
        if g_second[axis].is_some() || g_first[axis].is_some() {
            out_mask |= axes.first[axis].map_or(0, |b1| 1 << b1);
        }
    }
    if out_mask != 0 || g_value {
        out_mask |= 1;
    }

    let (zs, gs) = (z.as_slice(), g.as_slice());
    let mut out = Matrix::zeros(z.rows(), z.cols());
    par_block_chunks(out.as_mut_slice(), blocks, |range, out| {
        let n = range.len();
        let rows = |b: usize| b * len + range.start..b * len + range.end;
        let (zb, gb) = (|b| &zs[rows(b)], |b| &gs[rows(b)]);
        let (mut s1, mut s2, mut s3) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        for (j, &x) in zb(0).iter().enumerate() {
            let [_, d1, d2, d3] = act.jet_derivatives(x);
            (s1[j], s2[j], s3[j]) = (d1, d2, d3);
        }
        // Adjoints of the σ' and σ'' factors, summed over the channels.
        let (mut a1, mut a2) = (vec![0.0; n], vec![0.0; n]);
        let (mut a1_set, mut a2_set) = (false, false);
        for axis in (0..3).rev() {
            let Some(b1) = axes.first[axis] else { continue };
            let z1 = zb(b1);
            let mut dz1_set = false;
            if let Some(b2) = g_second[axis] {
                let (g2, z2) = (gb(b2), zb(b2));
                accumulate(&mut a1, &mut a1_set, |j| g2[j] * z2[j]);
                accumulate(out[b2], &mut false, |j| g2[j] * s1[j]);
                accumulate(&mut a2, &mut a2_set, |j| g2[j] * (z1[j] * z1[j]));
                accumulate(out[b1], &mut dz1_set, |j| (g2[j] * s2[j]) * (z1[j] * 2.0));
            }
            if g_first[axis].is_some() {
                let g1 = gb(b1);
                accumulate(&mut a1, &mut a1_set, |j| g1[j] * z1[j]);
                accumulate(out[b1], &mut dz1_set, |j| g1[j] * s1[j]);
            }
        }
        let mut dz_set = false;
        if a2_set {
            accumulate(out[0], &mut dz_set, |j| a2[j] * s3[j]);
        }
        if a1_set {
            accumulate(out[0], &mut dz_set, |j| a1[j] * s2[j]);
        }
        if g_value {
            let g0 = gb(0);
            accumulate(out[0], &mut dz_set, |j| g0[j] * s1[j]);
        }
    });
    (out, out_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_sets_and_blocks() {
        let all = JetChannels::all();
        let order: Vec<JetChannel> = all.iter().collect();
        assert_eq!(
            order,
            vec![
                JetChannel::Value,
                JetChannel::First(0),
                JetChannel::Second(0),
                JetChannel::First(1),
                JetChannel::Second(1),
                JetChannel::First(2),
                JetChannel::Second(2),
            ]
        );
        for (i, c) in order.iter().enumerate() {
            assert_eq!(all.block(*c), Some(i));
        }
        let face = JetChannels::normal(1);
        assert_eq!(face.block(JetChannel::Value), Some(0));
        assert_eq!(face.block(JetChannel::First(1)), Some(1));
        assert_eq!(face.block(JetChannel::First(0)), None);
        assert_eq!(face.block(JetChannel::Second(1)), None);
        assert_eq!(JetChannels::normal(3).len(), 1);
        assert_eq!(all.block(JetChannel::First(3)), None);
        assert_eq!(face.to_string(), "{value, d/dy2}");
    }

    #[test]
    fn block_chunks_cover_every_element_once() {
        let blocks = 3;
        let len = 2 * JET_CHUNK + 5;
        let mut out = vec![0.0; blocks * len];
        par_block_chunks(&mut out, blocks, |range, pieces| {
            for (j, e) in range.enumerate() {
                for (b, piece) in pieces.iter_mut().enumerate() {
                    piece[j] += (b * len + e) as f64;
                }
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
    }
}
