use deepoheat_linalg::{LinalgError, Matrix};
use deepoheat_parallel as parallel;

use crate::jet::{self, JetChannel, JetChannels};
use crate::{Activation, AutodiffError};

/// A handle to a node in a [`Graph`].
///
/// `Var` is a plain index and is only meaningful for the graph that created
/// it; using it with another graph returns
/// [`AutodiffError::UnknownVariable`] (or silently refers to a different
/// node if the ids happen to collide — rebuild handles each iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    id: usize,
}

impl Var {
    /// Returns the raw node index (stable for the lifetime of one graph).
    pub fn id(self) -> usize {
        self.id
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// External input or parameter; no inputs.
    Leaf,
    /// `C = A · B`.
    MatMul(Var, Var),
    /// `C = A · Bᵀ` (the DeepONet combine kernel).
    MatMulTransposed(Var, Var),
    /// Elementwise `A + B`.
    Add(Var, Var),
    /// Elementwise `A - B`.
    Sub(Var, Var),
    /// Elementwise (Hadamard) `A ⊙ B`.
    Mul(Var, Var),
    /// `A + bias`, with `bias` a `1 × cols` row broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `A ⊙ col`, with `col` an `rows × 1` column broadcast over columns.
    MulColBroadcast(Var, Var),
    /// `s · A` for a compile-time constant `s`.
    Scale(Var, f64),
    /// `A + s` elementwise for a constant `s`. The constant is retained for
    /// `Debug` output even though the backward pass never reads it.
    AddScalar(Var, #[allow(dead_code)] f64),
    /// `σ⁽ᵒʳᵈᵉʳ⁾(A)` elementwise.
    Activate(Var, Activation, u8),
    /// Elementwise `A²`.
    Square(Var),
    /// Horizontal concatenation `[A | B]`.
    HCat(Var, Var),
    /// Scalar `mean(A²)` — the building block of every physics loss term.
    MeanSquare(Var),
    /// Scalar `mean(A)`.
    Mean(Var),
    /// Scalar `sum(A)`.
    Sum(Var),
    /// A dense layer over every channel of the jet `x`: `x W`, plus the
    /// bias row `b` on the value block.
    JetLinear { x: Var, w: Var, b: Var },
    /// An activation over every channel of a jet.
    JetActivate(Var, Activation),
    /// `A · Jᵀ` for the row block `block` of the jet node `jet`.
    MatMulTransposedChannel { a: Var, jet: Var, block: usize },
}

#[derive(Debug, Clone)]
struct Node {
    op: Op,
    value: Matrix,
    requires_grad: bool,
    /// The channels of a stacked jet node; `None` for ordinary nodes.
    jet: Option<JetChannels>,
}

/// Gradient slots of one backward pass.
///
/// A jet node's gradient arrives one channel block at a time, and
/// `present[id]` records which blocks hold one. The first contribution to
/// a block is stored, never added to zeros, exactly as for a whole node
/// (adding a `-0.0` contribution to `+0.0` would flip its sign). Blocks
/// that received nothing stay zero. An ordinary node is one block.
struct Slots {
    grads: Vec<Option<Matrix>>,
    present: Vec<u8>,
}

impl Slots {
    /// Adds `delta` to the gradient of `var`, a node of `shape` split into
    /// `blocks` equal row blocks. `delta` holds whole blocks starting at
    /// block `first`; only those whose bit is set in `mask` count.
    fn add(
        &mut self,
        var: Var,
        shape: (usize, usize),
        blocks: usize,
        first: usize,
        mut delta: Matrix,
        mask: u8,
    ) -> Result<(), AutodiffError> {
        let block_len = shape.0 / blocks.max(1) * shape.1;
        let count = delta.len().checked_div(block_len).unwrap_or(blocks);
        if delta.cols() != shape.1 || count * block_len != delta.len() || first + count > blocks {
            return Err(LinalgError::ShapeMismatch {
                op: "gradient",
                lhs: shape,
                rhs: delta.shape(),
            }
            .into());
        }
        let id = var.id;
        if self.present[id] == 0 && first == 0 && count == blocks {
            for b in (0..blocks).filter(|b| mask & (1 << b) == 0) {
                delta.as_mut_slice()[b * block_len..(b + 1) * block_len].fill(0.0);
            }
            self.grads[id] = Some(delta);
            self.present[id] = mask;
            return Ok(());
        }
        let slot = self.grads[id].get_or_insert_with(|| Matrix::zeros(shape.0, shape.1));
        for i in 0..count {
            let bit = 1 << (first + i);
            if mask & bit == 0 {
                continue;
            }
            let src = &delta.as_slice()[i * block_len..(i + 1) * block_len];
            let dst = &mut slot.as_mut_slice()[(first + i) * block_len..][..block_len];
            if self.present[id] & bit == 0 {
                dst.copy_from_slice(src);
            } else {
                parallel::par_chunks_mut(dst, ADD_CHUNK, |ci, chunk| {
                    let off = ci * ADD_CHUNK;
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v += src[off + j];
                    }
                });
            }
            self.present[id] |= bit;
        }
        Ok(())
    }
}

/// Elements per pooled job when a contribution is added to a gradient.
const ADD_CHUNK: usize = 64 * 1024;

/// The mask with the first `blocks` bits set.
fn all_blocks(blocks: usize) -> u8 {
    ((1u16 << blocks) - 1) as u8
}

/// Gradients of a scalar loss with respect to every node that requires
/// them, as produced by [`Graph::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Returns the gradient for `var`, or `None` if the node does not
    /// require gradients or did not influence the loss.
    pub fn get(&self, var: Var) -> Option<&Matrix> {
        self.grads.get(var.id).and_then(|g| g.as_ref())
    }

    /// Removes and returns the gradient for `var`, avoiding a clone.
    pub fn take(&mut self, var: Var) -> Option<Matrix> {
        self.grads.get_mut(var.id).and_then(|g| g.take())
    }
}

/// A computation graph (tape) of matrix-valued operations.
///
/// Values are computed eagerly as nodes are added; [`Graph::backward`]
/// replays the tape in reverse to accumulate exact gradients. See the
/// [crate-level documentation](crate) for the usage pattern.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph { nodes: Vec::new() }
    }

    /// Creates an empty graph with capacity reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Graph { nodes: Vec::with_capacity(n) }
    }

    /// Returns the number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a leaf node holding `value`.
    ///
    /// Pass `requires_grad = true` for trainable parameters and `false` for
    /// constant inputs (collocation coordinates, targets); gradient
    /// computation skips subtrees that do not require gradients.
    pub fn leaf(&mut self, value: Matrix, requires_grad: bool) -> Var {
        self.push(Op::Leaf, value, requires_grad)
    }

    /// Returns the value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this graph.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.id].value
    }

    /// Returns the scalar value of a `1 × 1` node.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this graph or is not `1 × 1`.
    pub fn scalar(&self, var: Var) -> f64 {
        let v = self.value(var);
        assert_eq!(v.shape(), (1, 1), "scalar() called on a {}x{} node", v.rows(), v.cols());
        v.as_slice()[0]
    }

    fn push(&mut self, op: Op, value: Matrix, requires_grad: bool) -> Var {
        self.push_jet(op, value, requires_grad, None)
    }

    fn push_jet(
        &mut self,
        op: Op,
        value: Matrix,
        requires_grad: bool,
        jet: Option<JetChannels>,
    ) -> Var {
        let id = self.nodes.len();
        self.nodes.push(Node { op, value, requires_grad, jet });
        Var { id }
    }

    fn check(&self, var: Var) -> Result<(), AutodiffError> {
        if var.id >= self.nodes.len() {
            Err(AutodiffError::UnknownVariable { id: var.id, graph_len: self.nodes.len() })
        } else {
            Ok(())
        }
    }

    fn rg(&self, a: Var) -> bool {
        self.nodes[a.id].requires_grad
    }

    /// Matrix product `a · b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the inner dimensions
    /// disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.matmul(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::MatMul(a, b), value, rg))
    }

    /// Matrix product against a transpose, `a · bᵀ`, without materialising
    /// the transpose.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the column counts
    /// disagree.
    pub fn matmul_transposed(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.matmul_transposed(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::MatMulTransposed(a, b), value, rg))
    }

    /// Elementwise sum `a + b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.add(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Add(a, b), value, rg))
    }

    /// Elementwise difference `a - b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.sub(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Sub(a, b), value, rg))
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.hadamard(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::Mul(a, b), value, rg))
    }

    /// Adds the `1 × cols` row `bias` to every row of `a` (a dense-layer
    /// bias term).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or `bias` is not
    /// `1 × a.cols()`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(bias)?;
        let value = self.nodes[a.id].value.add_row_broadcast(&self.nodes[bias.id].value)?;
        let rg = self.rg(a) || self.rg(bias);
        Ok(self.push(Op::AddRowBroadcast(a, bias), value, rg))
    }

    /// Multiplies every column of `a` elementwise by the `rows × 1` column
    /// `col` (per-row scaling — used for per-function HTC values in
    /// convection residuals).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or `col` is not
    /// `a.rows() × 1`.
    pub fn mul_col_broadcast(&mut self, a: Var, col: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(col)?;
        let av = &self.nodes[a.id].value;
        let cv = &self.nodes[col.id].value;
        if cv.cols() != 1 || cv.rows() != av.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_col_broadcast",
                lhs: av.shape(),
                rhs: cv.shape(),
            }
            .into());
        }
        let mut value = av.clone();
        for r in 0..value.rows() {
            let s = cv[(r, 0)];
            for v in value.row_mut(r) {
                *v *= s;
            }
        }
        let rg = self.rg(a) || self.rg(col);
        Ok(self.push(Op::MulColBroadcast(a, col), value, rg))
    }

    /// Scales every element by the constant `s`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn scale(&mut self, a: Var, s: f64) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.scaled(s);
        let rg = self.rg(a);
        Ok(self.push(Op::Scale(a, s), value, rg))
    }

    /// Adds the constant `s` to every element.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.map(|v| v + s);
        let rg = self.rg(a);
        Ok(self.push(Op::AddScalar(a, s), value, rg))
    }

    /// Applies the `order`-th derivative of `act` elementwise:
    /// `σ⁽ᵒʳᵈᵉʳ⁾(a)`.
    ///
    /// `order == 0` is the plain activation; orders 1 and 2 are used by the
    /// trunk-net jet propagation.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign, or
    /// [`AutodiffError::UnsupportedOrder`] if `order > 2` (the backward
    /// pass would need a fourth derivative, which is not provided).
    pub fn activation(&mut self, a: Var, act: Activation, order: u8) -> Result<Var, AutodiffError> {
        if order > 2 {
            return Err(AutodiffError::UnsupportedOrder { order, max: 2 });
        }
        self.check(a)?;
        // Pooled elementwise evaluation: collocation batches run thousands
        // of rows through transcendental activations per forward pass.
        let value = self.nodes[a.id].value.par_map(|v| act.eval(order, v));
        let rg = self.rg(a);
        Ok(self.push(Op::Activate(a, act, order), value, rg))
    }

    /// Inserts a stacked jet leaf: `value` holds the carried `channels` as
    /// equal row blocks in stacking order ([`JetChannels::iter`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the row count is not a multiple of the channel
    /// count.
    pub fn jet_leaf(
        &mut self,
        value: Matrix,
        channels: JetChannels,
        requires_grad: bool,
    ) -> Result<Var, AutodiffError> {
        if !value.rows().is_multiple_of(channels.len()) {
            return Err(LinalgError::InvalidDimension {
                op: "jet_leaf",
                what: format!(
                    "{} rows do not split into {} channels",
                    value.rows(),
                    channels.len()
                ),
            }
            .into());
        }
        Ok(self.push_jet(Op::Leaf, value, requires_grad, Some(channels)))
    }

    /// Whether `var` requires gradients (`false` for a foreign handle).
    pub fn requires_grad(&self, var: Var) -> bool {
        self.nodes.get(var.id).is_some_and(|n| n.requires_grad)
    }

    fn jet_of(&self, var: Var) -> Result<JetChannels, AutodiffError> {
        self.check(var)?;
        self.nodes[var.id].jet.ok_or(AutodiffError::NotAJet { id: var.id })
    }

    /// A dense layer over every channel of the jet `x` as one op: one GEMM
    /// `X W` over the stacked channels, plus the `1 × cols` bias `b` on the
    /// value block (the derivative of a constant is zero). Values and
    /// gradients are bit-identical to a per-channel `matmul` (and
    /// `add_row_broadcast` on the value).
    ///
    /// # Errors
    ///
    /// Returns an error if a handle is foreign, `x` is not a jet node, or
    /// the shapes disagree.
    pub fn jet_linear(&mut self, x: Var, w: Var, b: Var) -> Result<Var, AutodiffError> {
        let channels = self.jet_of(x)?;
        self.check(w)?;
        self.check(b)?;
        let xv = &self.nodes[x.id].value;
        let points = xv.rows() / channels.len();
        let value =
            jet::linear_forward(xv, &self.nodes[w.id].value, &self.nodes[b.id].value, points)?;
        let rg = self.rg(x) || self.rg(w) || self.rg(b);
        Ok(self.push_jet(Op::JetLinear { x, w, b }, value, rg, Some(channels)))
    }

    /// Applies `act` to a jet as one op, with one transcendental per
    /// element forward and backward:
    /// `a = σ(z)`, `aᵢ = σ'(z) zᵢ`, `aᵢᵢ = σ''(z) zᵢ² + σ'(z) zᵢᵢ`.
    /// Values and gradients are bit-identical to the composition of three
    /// `activation` nodes and the per-channel `mul`/`square`/`add` nodes.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign or not a jet node.
    pub fn jet_activate(&mut self, z: Var, act: Activation) -> Result<Var, AutodiffError> {
        let channels = self.jet_of(z)?;
        let value = jet::activate_forward(&self.nodes[z.id].value, channels, act);
        let rg = self.rg(z);
        Ok(self.push_jet(Op::JetActivate(z, act), value, rg, Some(channels)))
    }

    /// `a · J_cᵀ` for one channel `J_c` of the jet `jet`, read in place:
    /// the DeepONet combine of one derivative channel. Same bits as
    /// [`Graph::matmul_transposed`] against that channel alone.
    ///
    /// # Errors
    ///
    /// Returns [`AutodiffError::MissingChannel`] if the jet does not carry
    /// `channel`, or an error if a handle is foreign, `jet` is not a jet
    /// node, or the widths disagree.
    pub fn matmul_transposed_channel(
        &mut self,
        a: Var,
        jet: Var,
        channel: JetChannel,
    ) -> Result<Var, AutodiffError> {
        let channels = self.jet_of(jet)?;
        self.check(a)?;
        let block = channels.block(channel).ok_or(AutodiffError::MissingChannel { channel })?;
        let jv = &self.nodes[jet.id].value;
        let points = jv.rows() / channels.len();
        let j_c = jv.row_block_view(block * points..(block + 1) * points)?;
        let value = self.nodes[a.id].value.view().matmul_transposed(j_c)?;
        let rg = self.rg(a) || self.rg(jet);
        Ok(self.push(Op::MatMulTransposedChannel { a, jet, block }, value, rg))
    }

    /// Elementwise square `a²`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn square(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let value = self.nodes[a.id].value.map(|v| v * v);
        let rg = self.rg(a);
        Ok(self.push(Op::Square(a), value, rg))
    }

    /// Horizontal concatenation `[a | b]` (used by Fourier-feature layers
    /// to form `[sin(Bx) | cos(Bx)]`).
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the row counts
    /// differ.
    pub fn hcat(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        self.check(b)?;
        let value = self.nodes[a.id].value.hcat(&self.nodes[b.id].value)?;
        let rg = self.rg(a) || self.rg(b);
        Ok(self.push(Op::HCat(a, b), value, rg))
    }

    /// Scalar node `mean(a²)` — the mean-squared residual of a physics
    /// constraint.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn mean_square(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let v = &self.nodes[a.id].value;
        let ms = v.iter().map(|&x| x * x).sum::<f64>() / v.len().max(1) as f64;
        let rg = self.rg(a);
        Ok(self.push(Op::MeanSquare(a), Matrix::filled(1, 1, ms), rg))
    }

    /// Scalar node `mean(a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn mean(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let m = self.nodes[a.id].value.mean();
        let rg = self.rg(a);
        Ok(self.push(Op::Mean(a), Matrix::filled(1, 1, m), rg))
    }

    /// Scalar node `sum(a)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the handle is foreign.
    pub fn sum(&mut self, a: Var) -> Result<Var, AutodiffError> {
        self.check(a)?;
        let s = self.nodes[a.id].value.sum();
        let rg = self.rg(a);
        Ok(self.push(Op::Sum(a), Matrix::filled(1, 1, s), rg))
    }

    /// Convenience: mean-squared error `mean((a - b)²)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either handle is foreign or the shapes differ.
    pub fn mse(&mut self, a: Var, b: Var) -> Result<Var, AutodiffError> {
        let d = self.sub(a, b)?;
        self.mean_square(d)
    }

    /// Runs reverse-mode differentiation from the scalar node `loss`.
    ///
    /// # Errors
    ///
    /// * [`AutodiffError::UnknownVariable`] if `loss` is foreign.
    /// * [`AutodiffError::NonScalarLoss`] if `loss` is not `1 × 1`.
    pub fn backward(&self, loss: Var) -> Result<Gradients, AutodiffError> {
        self.check(loss)?;
        let shape = self.nodes[loss.id].value.shape();
        if shape != (1, 1) {
            return Err(AutodiffError::NonScalarLoss { shape });
        }
        let mut slots =
            Slots { grads: vec![None; self.nodes.len()], present: vec![0; self.nodes.len()] };
        slots.grads[loss.id] = Some(Matrix::filled(1, 1, 1.0));
        slots.present[loss.id] = all_blocks(1);

        for id in (0..=loss.id).rev() {
            let Some(grad) = slots.grads[id].take() else { continue };
            let node = &self.nodes[id];
            if !node.requires_grad {
                continue;
            }
            let present = slots.present[id];
            self.accumulate(&mut slots, node, &grad, present)?;
            slots.grads[id] = Some(grad);
        }
        Ok(Gradients { grads: slots.grads })
    }

    /// Adds a whole-node gradient contribution to `var`.
    fn give(&self, slots: &mut Slots, var: Var, delta: Matrix) -> Result<(), AutodiffError> {
        let node = &self.nodes[var.id];
        let blocks = node.jet.map_or(1, JetChannels::len);
        slots.add(var, node.value.shape(), blocks, 0, delta, all_blocks(blocks))
    }

    /// Adds blocks `first..` of a stacked contribution to the jet `var`,
    /// counting those in `mask`.
    fn give_blocks(
        &self,
        slots: &mut Slots,
        var: Var,
        first: usize,
        delta: Matrix,
        mask: u8,
    ) -> Result<(), AutodiffError> {
        let node = &self.nodes[var.id];
        let blocks = node.jet.map_or(1, JetChannels::len);
        slots.add(var, node.value.shape(), blocks, first, delta, mask)
    }

    fn accumulate(
        &self,
        slots: &mut Slots,
        node: &Node,
        grad: &Matrix,
        present: u8,
    ) -> Result<(), AutodiffError> {
        match &node.op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    let da = grad.matmul_transposed(&self.nodes[b.id].value)?;
                    self.give(slots, *a, da)?;
                }
                if self.rg(*b) {
                    let db = self.nodes[a.id].value.transpose_matmul(grad)?;
                    self.give(slots, *b, db)?;
                }
            }
            Op::MatMulTransposed(a, b) => {
                // C = A Bᵀ: dA = dC · B, dB = dCᵀ · A.
                if self.rg(*a) {
                    let da = grad.matmul(&self.nodes[b.id].value)?;
                    self.give(slots, *a, da)?;
                }
                if self.rg(*b) {
                    let db = grad.transpose_matmul(&self.nodes[a.id].value)?;
                    self.give(slots, *b, db)?;
                }
            }
            Op::Add(a, b) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.clone())?;
                }
                if self.rg(*b) {
                    self.give(slots, *b, grad.clone())?;
                }
            }
            Op::Sub(a, b) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.clone())?;
                }
                if self.rg(*b) {
                    self.give(slots, *b, grad.scaled(-1.0))?;
                }
            }
            Op::Mul(a, b) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.hadamard(&self.nodes[b.id].value)?)?;
                }
                if self.rg(*b) {
                    self.give(slots, *b, grad.hadamard(&self.nodes[a.id].value)?)?;
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.clone())?;
                }
                if self.rg(*bias) {
                    let mut db = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (c, &g) in grad.row(r).iter().enumerate() {
                            db[(0, c)] += g;
                        }
                    }
                    self.give(slots, *bias, db)?;
                }
            }
            Op::MulColBroadcast(a, col) => {
                let av = &self.nodes[a.id].value;
                let cv = &self.nodes[col.id].value;
                if self.rg(*a) {
                    let mut da = grad.clone();
                    for r in 0..da.rows() {
                        let s = cv[(r, 0)];
                        for v in da.row_mut(r) {
                            *v *= s;
                        }
                    }
                    self.give(slots, *a, da)?;
                }
                if self.rg(*col) {
                    let mut dc = Matrix::zeros(av.rows(), 1);
                    for r in 0..av.rows() {
                        let mut acc = 0.0;
                        for (g, x) in grad.row(r).iter().zip(av.row(r)) {
                            acc += g * x;
                        }
                        dc[(r, 0)] = acc;
                    }
                    self.give(slots, *col, dc)?;
                }
            }
            Op::Scale(a, s) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.scaled(*s))?;
                }
            }
            Op::AddScalar(a, _) => {
                if self.rg(*a) {
                    self.give(slots, *a, grad.clone())?;
                }
            }
            Op::Activate(a, act, order) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let mut da = grad.clone();
                    let (act, order) = (*act, *order);
                    da.par_apply_with(av, |g, x| g * act.eval(order + 1, x))?;
                    self.give(slots, *a, da)?;
                }
            }
            Op::Square(a) => {
                if self.rg(*a) {
                    let da = grad.hadamard(&self.nodes[a.id].value.scaled(2.0))?;
                    self.give(slots, *a, da)?;
                }
            }
            Op::HCat(a, b) => {
                let a_cols = self.nodes[a.id].value.cols();
                if self.rg(*a) {
                    let mut da = Matrix::zeros(grad.rows(), a_cols);
                    for r in 0..grad.rows() {
                        da.row_mut(r).copy_from_slice(&grad.row(r)[..a_cols]);
                    }
                    self.give(slots, *a, da)?;
                }
                if self.rg(*b) {
                    let b_cols = grad.cols() - a_cols;
                    let mut db = Matrix::zeros(grad.rows(), b_cols);
                    for r in 0..grad.rows() {
                        db.row_mut(r).copy_from_slice(&grad.row(r)[a_cols..]);
                    }
                    self.give(slots, *b, db)?;
                }
            }
            Op::MeanSquare(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0];
                    let scale = 2.0 * g / av.len().max(1) as f64;
                    self.give(slots, *a, av.scaled(scale))?;
                }
            }
            Op::Mean(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0] / av.len().max(1) as f64;
                    self.give(slots, *a, Matrix::filled(av.rows(), av.cols(), g))?;
                }
            }
            Op::Sum(a) => {
                if self.rg(*a) {
                    let av = &self.nodes[a.id].value;
                    let g = grad.as_slice()[0];
                    self.give(slots, *a, Matrix::filled(av.rows(), av.cols(), g))?;
                }
            }
            Op::JetLinear { x, w, b } => {
                // Per channel, reverse-mode over `x_c W` (+ `b` on the
                // value) adds dX_c, then dW_c, channel by channel from the
                // last; dX rows are independent, so a run of present
                // blocks shares one GEMM.
                let blocks = node.jet.map_or(1, JetChannels::len);
                let points = grad.rows() / blocks;
                let rows = |blk: usize| blk * points..(blk + 1) * points;
                let is_present = |blk: &usize| present & (1 << blk) != 0;
                if self.rg(*x) {
                    let wv = self.nodes[w.id].value.view();
                    let mut blk = 0;
                    while blk < blocks {
                        let start = blk;
                        while blk < blocks && is_present(&blk) {
                            blk += 1;
                        }
                        if blk > start {
                            let run = grad.row_block_view(start * points..blk * points)?;
                            let dx = run.matmul_transposed(wv)?;
                            self.give_blocks(slots, *x, start, dx, present)?;
                        }
                        blk += 1;
                    }
                }
                if self.rg(*b) && is_present(&0) {
                    let mut db = Matrix::zeros(1, grad.cols());
                    for r in rows(0) {
                        for (d, &g) in db.as_mut_slice().iter_mut().zip(grad.row(r)) {
                            *d += g;
                        }
                    }
                    self.give(slots, *b, db)?;
                }
                if self.rg(*w) {
                    let xv = &self.nodes[x.id].value;
                    for blk in (0..blocks).rev().filter(is_present) {
                        let x_c = xv.row_block_view(rows(blk))?;
                        let dw = x_c.transpose_matmul(grad.row_block_view(rows(blk))?)?;
                        self.give(slots, *w, dw)?;
                    }
                }
            }
            Op::JetActivate(z, act) => {
                if self.rg(*z) {
                    let channels = node.jet.unwrap_or(JetChannels::all());
                    let zv = &self.nodes[z.id].value;
                    let (dz, mask) = jet::activate_backward(zv, grad, present, channels, *act);
                    self.give_blocks(slots, *z, 0, dz, mask)?;
                }
            }
            Op::MatMulTransposedChannel { a, jet, block } => {
                // C = A J_cᵀ: dA = dC · J_c, dJ_c = dCᵀ · A.
                let jv = &self.nodes[jet.id].value;
                let points = jv.rows() / self.nodes[jet.id].jet.map_or(1, JetChannels::len);
                let j_c = jv.row_block_view(block * points..(block + 1) * points)?;
                if self.rg(*a) {
                    self.give(slots, *a, grad.view().matmul(j_c)?)?;
                }
                if self.rg(*jet) {
                    let dj = grad.transpose_matmul(&self.nodes[a.id].value)?;
                    self.give_blocks(slots, *jet, *block, dj, 1 << block)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_rule() {
        // loss = mean_square(3 * x + 1) with x = [2]: loss = 49, dloss/dx = 2*7*3 = 42.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 2.0), true);
        let s = g.scale(x, 3.0).unwrap();
        let y = g.add_scalar(s, 1.0).unwrap();
        let loss = g.mean_square(y).unwrap();
        assert_eq!(g.scalar(loss), 49.0);
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[42.0]);
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A B), A 2x2, B 2x2 => dA = 1 Bᵀ, dB = Aᵀ 1.
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(), true);
        let b = g.leaf(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap(), true);
        let c = g.matmul(a, b).unwrap();
        let loss = g.sum(c).unwrap();
        let grads = g.backward(loss).unwrap();
        // dA = ones(2,2) Bᵀ: row sums of B columns => each row [11, 15].
        assert_eq!(grads.get(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dB = Aᵀ ones(2,2) => each col [4, 6]ᵀ stacked.
        assert_eq!(grads.get(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_transposed_matches_matmul_grad() {
        let a_val = Matrix::from_fn(3, 4, |r, c| (r + c) as f64 * 0.3);
        let b_val = Matrix::from_fn(5, 4, |r, c| (r as f64 - c as f64) * 0.2);

        // Path 1: a · bᵀ via matmul_transposed.
        let mut g1 = Graph::new();
        let a1 = g1.leaf(a_val.clone(), true);
        let b1 = g1.leaf(b_val.clone(), true);
        let c1 = g1.matmul_transposed(a1, b1).unwrap();
        let l1 = g1.mean_square(c1).unwrap();
        let gr1 = g1.backward(l1).unwrap();

        // Path 2: explicit transpose leaf cannot share grads, so compare
        // values against matmul with pre-transposed leaf and gradient of a only.
        let mut g2 = Graph::new();
        let a2 = g2.leaf(a_val, true);
        let bt = g2.leaf(b_val.transpose(), false);
        let c2 = g2.matmul(a2, bt).unwrap();
        let l2 = g2.mean_square(c2).unwrap();
        let gr2 = g2.backward(l2).unwrap();

        assert_eq!(g1.value(c1), g2.value(c2));
        let ga1 = gr1.get(a1).unwrap();
        let ga2 = gr2.get(a2).unwrap();
        for (x, y) in ga1.iter().zip(ga2.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
        assert!(gr1.get(b1).is_some());
    }

    #[test]
    fn broadcast_ops_gradients() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap(), true);
        let bias = g.leaf(Matrix::row_vector(&[10.0, 20.0]), true);
        let col = g.leaf(Matrix::column_vector(&[2.0, -1.0]), true);
        let z = g.add_row_broadcast(a, bias).unwrap();
        let w = g.mul_col_broadcast(z, col).unwrap();
        let loss = g.sum(w).unwrap();
        // w = [[(1+10)*2, (2+20)*2], [(3+10)*-1, (4+20)*-1]]
        assert_eq!(g.value(w).as_slice(), &[22.0, 44.0, -13.0, -24.0]);
        let grads = g.backward(loss).unwrap();
        // d/da = col broadcast of ones = [[2,2],[-1,-1]].
        assert_eq!(grads.get(a).unwrap().as_slice(), &[2.0, 2.0, -1.0, -1.0]);
        // d/dbias = column sums of the same = [1, 1].
        assert_eq!(grads.get(bias).unwrap().as_slice(), &[1.0, 1.0]);
        // d/dcol = row sums of z = [33, 37].
        assert_eq!(grads.get(col).unwrap().as_slice(), &[33.0, 37.0]);
    }

    #[test]
    fn activation_backward_uses_next_order() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 0.7), true);
        let y = g.activation(x, Activation::Sine, 0).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!((grads.get(x).unwrap().as_slice()[0] - 0.7f64.cos()).abs() < 1e-15);

        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 0.7), true);
        let y = g.activation(x, Activation::Sine, 2).unwrap(); // -sin
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!((grads.get(x).unwrap().as_slice()[0] + 0.7f64.cos()).abs() < 1e-15);
    }

    #[test]
    fn hcat_splits_gradient() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 2, 1.0), true);
        let b = g.leaf(Matrix::filled(2, 3, 1.0), true);
        let c = g.hcat(a, b).unwrap();
        assert_eq!(g.value(c).shape(), (2, 5));
        let loss = g.mean_square(c).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(a).unwrap().shape(), (2, 2));
        assert_eq!(grads.get(b).unwrap().shape(), (2, 3));
        // d mean(c²)/dc = 2c/10 = 0.2 everywhere.
        assert!(grads.get(a).unwrap().iter().all(|&v| (v - 0.2).abs() < 1e-15));
    }

    #[test]
    fn no_grad_subtrees_are_skipped() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 2.0), false);
        let w = g.leaf(Matrix::filled(1, 1, 3.0), true);
        let y = g.mul(x, w).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert!(grads.get(x).is_none());
        assert_eq!(grads.get(w).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // y = x + x => dy/dx = 2.
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 5.0), true);
        let y = g.add(x, x).unwrap();
        let loss = g.sum(y).unwrap();
        let grads = g.backward(loss).unwrap();
        assert_eq!(grads.get(x).unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn backward_rejects_non_scalar() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::zeros(2, 2), true);
        let err = g.backward(x).unwrap_err();
        assert!(matches!(err, AutodiffError::NonScalarLoss { shape: (2, 2) }));
    }

    #[test]
    fn foreign_var_is_rejected() {
        let mut g1 = Graph::new();
        let mut g2 = Graph::new();
        let x1 = g1.leaf(Matrix::zeros(1, 1), true);
        let _ = x1;
        let bogus = Var { id: 99 };
        assert!(matches!(g2.matmul(bogus, bogus), Err(AutodiffError::UnknownVariable { .. })));
    }

    #[test]
    fn mse_convenience() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::row_vector(&[1.0, 2.0]), true);
        let b = g.leaf(Matrix::row_vector(&[0.0, 0.0]), false);
        let loss = g.mse(a, b).unwrap();
        assert_eq!(g.scalar(loss), 2.5);
    }

    #[test]
    fn mean_and_sum_grads() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 3, 4.0), true);
        let m = g.mean(a).unwrap();
        let grads = g.backward(m).unwrap();
        assert!(grads.get(a).unwrap().iter().all(|&v| (v - 1.0 / 6.0).abs() < 1e-15));

        let mut g = Graph::new();
        let a = g.leaf(Matrix::filled(2, 3, 4.0), true);
        let s = g.sum(a).unwrap();
        let grads = g.backward(s).unwrap();
        assert!(grads.get(a).unwrap().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn take_moves_gradient_out() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::filled(1, 1, 1.0), true);
        let loss = g.mean_square(x).unwrap();
        let mut grads = g.backward(loss).unwrap();
        assert!(grads.take(x).is_some());
        assert!(grads.take(x).is_none());
    }
}
