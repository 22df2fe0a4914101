//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records the forward computation as a DAG of nodes; calling
//! [`Tape::backward`] on a scalar node walks the DAG in reverse topological
//! order (which is simply reverse insertion order) and accumulates
//! gradients into every node. Leaf nodes created from trainable parameters
//! remember their [`ParamId`]; [`Tape::accumulate_param_grads`] then routes
//! their gradients into the owning [`ParamStore`].
//!
//! Typical training step:
//!
//! ```
//! use taste_nn::{Matrix, ParamStore, Tape};
//!
//! let mut store = ParamStore::new(42);
//! let w = store.normal("w", 2, 1, 0.1);
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
//! let wn = tape.param(&store, w);
//! let y = tape.matmul(x, wn);
//! let sq = tape.square(y);
//! let loss = tape.sum(sq);
//! tape.backward(loss);
//! tape.accumulate_param_grads(&mut store);
//! assert!(store.grad(w).sq_norm() > 0.0);
//! ```

use crate::elementary::{gelu_grad_f, sigmoid_f};
use crate::kernels::Act;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// Handle to a node in an execution backend (a [`Tape`] or a
/// [`crate::exec::InferExec`] session — the two never share handles, so a
/// `NodeId` is only meaningful with the backend that produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(usize);

impl NodeId {
    pub(crate) fn from_index(i: usize) -> NodeId {
        NodeId(i)
    }

    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation, with the inputs needed to compute gradients.
#[derive(Debug, Clone)]
enum Op {
    Leaf { param: Option<ParamId> },
    Matmul(NodeId, NodeId),
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Mul(NodeId, NodeId),
    MulRow(NodeId, NodeId),
    Scale(NodeId, f32),
    Relu(NodeId),
    Gelu(NodeId),
    Sigmoid(NodeId),
    Tanh(NodeId),
    SoftmaxRows(NodeId),
    LayerNormRows { x: NodeId, eps: f32 },
    VCat(NodeId, NodeId),
    HCat(NodeId, NodeId),
    SliceRows { x: NodeId, start: usize, len: usize },
    SliceCols { x: NodeId, start: usize, len: usize },
    Transpose(NodeId),
    MeanRows(NodeId),
    Sum(NodeId),
    GatherParamRows { param: ParamId, indices: Vec<usize> },
    MulConstMask(NodeId, Matrix),
    Square(NodeId),
    Recip(NodeId),
    Ln1p(NodeId),
    BceWithLogitsSum { logits: NodeId, targets: Matrix, pos_weight: f32 },
    SoftmaxXentSum { logits: NodeId, targets: Vec<usize> },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A forward-computation recorder supporting reverse-mode differentiation.
///
/// The tape owns copies of every intermediate value. For inference-only
/// passes the overhead is the values themselves (which the caller needs
/// anyway); simply never call [`Tape::backward`].
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Scratch buffers for the matmul backward rules, recycled across
    /// every `Op::Matmul` visited by [`Tape::backward`] so the hot
    /// gradient path performs no per-step allocation once warmed.
    scratch_bt: Matrix,
    scratch_at: Matrix,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        debug_assert!(value.all_finite(), "non-finite forward value from {op:?}");
        self.nodes.push(Node { value, grad: None, op });
        NodeId(self.nodes.len() - 1)
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// The gradient of a node after [`Tape::backward`]; zeros if the node
    /// did not participate in the loss.
    pub fn grad(&self, id: NodeId) -> Matrix {
        let node = &self.nodes[id.0];
        node.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(node.value.rows(), node.value.cols()))
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- node constructors -------------------------------------------------

    /// A constant / input leaf.
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf { param: None })
    }

    /// A leaf backed by a trainable parameter; its gradient is routed to
    /// the parameter by [`Tape::accumulate_param_grads`].
    pub fn param(&mut self, store: &ParamStore, pid: ParamId) -> NodeId {
        let value = store.value(pid).clone();
        self.push(value, Op::Leaf { param: Some(pid) })
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        self.push(v, Op::Matmul(a, b))
    }

    /// Elementwise sum of two same-shape nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Broadcast add of a `[1, n]` row vector to every row of `[m, n]`.
    pub fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let xv = &self.nodes[x.0].value;
        let rv = &self.nodes[row.0].value;
        assert_eq!(rv.rows(), 1, "add_row: rhs must be a row vector");
        assert_eq!(xv.cols(), rv.cols(), "add_row: column mismatch");
        let mut v = xv.clone();
        for r in 0..v.rows() {
            let row_slice = v.row_slice_mut(r);
            for (o, &b) in row_slice.iter_mut().zip(rv.as_slice()) {
                *o += b;
            }
        }
        self.push(v, Op::AddRow(x, row))
    }

    /// Elementwise product of two same-shape nodes.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.zip(&self.nodes[b.0].value, |x, y| x * y);
        self.push(v, Op::Mul(a, b))
    }

    /// Broadcast multiply of every row of `[m, n]` by a `[1, n]` row.
    pub fn mul_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let xv = &self.nodes[x.0].value;
        let rv = &self.nodes[row.0].value;
        assert_eq!(rv.rows(), 1, "mul_row: rhs must be a row vector");
        assert_eq!(xv.cols(), rv.cols(), "mul_row: column mismatch");
        let mut v = xv.clone();
        for r in 0..v.rows() {
            let row_slice = v.row_slice_mut(r);
            for (o, &b) in row_slice.iter_mut().zip(rv.as_slice()) {
                *o *= b;
            }
        }
        self.push(v, Op::MulRow(x, row))
    }

    /// Scalar scaling.
    pub fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let v = self.nodes[x.0].value.map(|v| v * alpha);
        self.push(v, Op::Scale(x, alpha))
    }

    /// The forward value of an activation node: the slice kernel the
    /// serving executor runs.
    fn activated(&self, x: NodeId, act: Act) -> Matrix {
        let mut v = self.nodes[x.0].value.clone();
        act.apply_slice(v.as_mut_slice());
        v
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: NodeId) -> NodeId {
        let v = self.activated(x, Act::Relu);
        self.push(v, Op::Relu(x))
    }

    /// GELU activation (tanh approximation, as BERT uses).
    pub fn gelu(&mut self, x: NodeId) -> NodeId {
        let v = self.activated(x, Act::Gelu);
        self.push(v, Op::Gelu(x))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let v = self.activated(x, Act::Sigmoid);
        self.push(v, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: NodeId) -> NodeId {
        let v = self.activated(x, Act::Tanh);
        self.push(v, Op::Tanh(x))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let v = self.nodes[x.0].value.softmax_rows();
        self.push(v, Op::SoftmaxRows(x))
    }

    /// Row-wise layer normalization *without* the affine transform; apply
    /// gain/bias with [`Tape::mul_row`] / [`Tape::add_row`].
    pub fn layer_norm_rows(&mut self, x: NodeId, eps: f32) -> NodeId {
        let mut v = self.nodes[x.0].value.clone();
        v.layer_norm_rows_inplace(eps);
        self.push(v, Op::LayerNormRows { x, eps })
    }

    /// Vertical concatenation (stacks sequences; the paper's `⊕` on
    /// latent representations along the token axis).
    pub fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.vcat(&self.nodes[b.0].value);
        self.push(v, Op::VCat(a, b))
    }

    /// Horizontal concatenation (feature-axis `⊕`, e.g. classifier input).
    pub fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.nodes[a.0].value.hcat(&self.nodes[b.0].value);
        self.push(v, Op::HCat(a, b))
    }

    /// Copy of rows `[start, start+len)`.
    pub fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let v = self.nodes[x.0].value.slice_rows(start, len);
        self.push(v, Op::SliceRows { x, start, len })
    }

    /// Copy of columns `[start, start+len)`.
    pub fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let v = self.nodes[x.0].value.slice_cols(start, len);
        self.push(v, Op::SliceCols { x, start, len })
    }

    /// Transpose.
    pub fn transpose(&mut self, x: NodeId) -> NodeId {
        let v = self.nodes[x.0].value.transpose();
        self.push(v, Op::Transpose(x))
    }

    /// Column means: `[m, n] -> [1, n]`.
    pub fn mean_rows(&mut self, x: NodeId) -> NodeId {
        let xv = &self.nodes[x.0].value;
        let m = xv.rows() as f32;
        let mut v = Matrix::zeros(1, xv.cols());
        for r in 0..xv.rows() {
            for (o, &val) in v.as_mut_slice().iter_mut().zip(xv.row_slice(r)) {
                *o += val;
            }
        }
        for o in v.as_mut_slice() {
            *o /= m;
        }
        self.push(v, Op::MeanRows(x))
    }

    /// Sum of all elements, as a `1×1` node.
    pub fn sum(&mut self, x: NodeId) -> NodeId {
        let v = Matrix::scalar(self.nodes[x.0].value.sum());
        self.push(v, Op::Sum(x))
    }

    /// Embedding lookup: gathers `indices` rows of the parameter matrix
    /// without cloning the full table into the tape. Gradients are
    /// scatter-added back into the parameter.
    pub fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId {
        let v = store.value(pid).gather_rows(indices);
        self.push(v, Op::GatherParamRows { param: pid, indices: indices.to_vec() })
    }

    /// Elementwise multiply by a constant mask (inverted-dropout masks,
    /// attention masks). The mask receives no gradient.
    pub fn mul_const_mask(&mut self, x: NodeId, mask: Matrix) -> NodeId {
        let v = self.nodes[x.0].value.zip(&mask, |a, b| a * b);
        self.push(v, Op::MulConstMask(x, mask))
    }

    /// Elementwise square.
    pub fn square(&mut self, x: NodeId) -> NodeId {
        let v = self.nodes[x.0].value.map(|v| v * v);
        self.push(v, Op::Square(x))
    }

    /// Elementwise reciprocal.
    pub fn recip(&mut self, x: NodeId) -> NodeId {
        let v = self.nodes[x.0].value.map(|v| 1.0 / v);
        self.push(v, Op::Recip(x))
    }

    /// Elementwise `ln(1 + x)`.
    pub fn ln1p(&mut self, x: NodeId) -> NodeId {
        let v = self.nodes[x.0].value.map(f32::ln_1p);
        self.push(v, Op::Ln1p(x))
    }

    /// Numerically-stable multi-label binary cross-entropy with logits,
    /// summed over all `(row, col)` decisions, as a `1×1` node.
    ///
    /// Uses `max(z,0) - z*y + ln(1+e^{-|z|})`, the standard stable form.
    pub fn bce_with_logits_sum(&mut self, logits: NodeId, targets: Matrix) -> NodeId {
        self.bce_with_logits_weighted_sum(logits, targets, 1.0)
    }

    /// [`Tape::bce_with_logits_sum`] with the positive decisions weighted
    /// by `pos_weight` — `pw·y·softplus(-z) + (1-y)·softplus(z)`. With
    /// many types and one or two positives per column, the positive
    /// gradient signal is otherwise drowned by the negatives.
    pub fn bce_with_logits_weighted_sum(&mut self, logits: NodeId, targets: Matrix, pos_weight: f32) -> NodeId {
        assert!(pos_weight > 0.0, "pos_weight must be positive");
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.shape(), targets.shape(), "bce target shape mismatch");
        let mut total = 0.0f64;
        for (&zv, &yv) in z.as_slice().iter().zip(targets.as_slice()) {
            let softplus_pos = zv.max(0.0) + (-zv.abs()).exp().ln_1p(); // softplus(z)
            let softplus_neg = softplus_pos - zv; // softplus(-z)
            let l = pos_weight * yv * softplus_neg + (1.0 - yv) * softplus_pos;
            total += f64::from(l);
        }
        self.push(
            Matrix::scalar(total as f32),
            Op::BceWithLogitsSum { logits, targets, pos_weight },
        )
    }

    /// Softmax cross-entropy against integer class targets (one per row),
    /// summed over rows, as a `1×1` node. Used by MLM pre-training.
    pub fn softmax_xent_sum(&mut self, logits: NodeId, targets: Vec<usize>) -> NodeId {
        let z = &self.nodes[logits.0].value;
        assert_eq!(z.rows(), targets.len(), "xent target count mismatch");
        let probs = z.softmax_rows();
        let mut total = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < z.cols(), "xent target {t} out of {} classes", z.cols());
            let p = probs.get(r, t).max(1e-12);
            total -= f64::from(p.ln());
        }
        self.push(Matrix::scalar(total as f32), Op::SoftmaxXentSum { logits, targets })
    }

    // ---- backward ----------------------------------------------------------

    fn add_grad(&mut self, id: NodeId, delta: &Matrix) {
        let node = &mut self.nodes[id.0];
        match &mut node.grad {
            Some(g) => g.axpy(1.0, delta),
            None => node.grad = Some(delta.clone()),
        }
    }

    /// Runs reverse-mode differentiation from a `1×1` loss node.
    ///
    /// # Panics
    /// Panics when `loss` is not scalar-shaped.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward() requires a scalar loss node"
        );
        self.nodes[loss.0].grad = Some(Matrix::scalar(1.0));
        for i in (0..self.nodes.len()).rev() {
            let Some(grad) = self.nodes[i].grad.clone() else {
                continue;
            };
            let op = self.nodes[i].op.clone();
            match op {
                Op::Leaf { .. } => {}
                Op::Matmul(a, b) => {
                    // dA = grad @ B^T and dB = A^T @ grad, via the
                    // allocation-free `_into` kernels writing recycled
                    // scratch buffers.
                    let mut da = std::mem::take(&mut self.scratch_bt);
                    da.reset_shape(grad.rows(), self.nodes[b.0].value.rows());
                    grad.matmul_bt_into(&self.nodes[b.0].value, &mut da);
                    self.add_grad(a, &da);
                    self.scratch_bt = da;

                    let mut db = std::mem::take(&mut self.scratch_at);
                    db.reset_shape(self.nodes[a.0].value.cols(), grad.cols());
                    self.nodes[a.0].value.matmul_at_into(&grad, &mut db);
                    self.add_grad(b, &db);
                    self.scratch_at = db;
                }
                Op::Add(a, b) => {
                    self.add_grad(a, &grad);
                    self.add_grad(b, &grad);
                }
                Op::AddRow(x, row) => {
                    self.add_grad(x, &grad);
                    let mut drow = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (o, &g) in drow.as_mut_slice().iter_mut().zip(grad.row_slice(r)) {
                            *o += g;
                        }
                    }
                    self.add_grad(row, &drow);
                }
                Op::Mul(a, b) => {
                    let da = grad.zip(&self.nodes[b.0].value, |g, bv| g * bv);
                    let db = grad.zip(&self.nodes[a.0].value, |g, av| g * av);
                    self.add_grad(a, &da);
                    self.add_grad(b, &db);
                }
                Op::MulRow(x, row) => {
                    let rv = self.nodes[row.0].value.clone();
                    let xv = self.nodes[x.0].value.clone();
                    let mut dx = grad.clone();
                    for r in 0..dx.rows() {
                        for (o, &b) in dx.row_slice_mut(r).iter_mut().zip(rv.as_slice()) {
                            *o *= b;
                        }
                    }
                    self.add_grad(x, &dx);
                    let mut drow = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        let grow = grad.row_slice(r);
                        let xrow = xv.row_slice(r);
                        for ((o, &g), &xval) in drow.as_mut_slice().iter_mut().zip(grow).zip(xrow) {
                            *o += g * xval;
                        }
                    }
                    self.add_grad(row, &drow);
                }
                Op::Scale(x, alpha) => {
                    let dx = grad.map(|g| g * alpha);
                    self.add_grad(x, &dx);
                }
                Op::Relu(x) => {
                    let dx = grad.zip(&self.nodes[x.0].value, |g, xv| if xv > 0.0 { g } else { 0.0 });
                    self.add_grad(x, &dx);
                }
                Op::Gelu(x) => {
                    let dx = grad.zip(&self.nodes[x.0].value, |g, xv| g * gelu_grad_f(xv));
                    self.add_grad(x, &dx);
                }
                Op::Sigmoid(x) => {
                    let dx = grad.zip(&self.nodes[i].value, |g, s| g * s * (1.0 - s));
                    self.add_grad(x, &dx);
                }
                Op::Tanh(x) => {
                    let dx = grad.zip(&self.nodes[i].value, |g, t| g * (1.0 - t * t));
                    self.add_grad(x, &dx);
                }
                Op::SoftmaxRows(x) => {
                    let s = &self.nodes[i].value;
                    let mut dx = Matrix::zeros(s.rows(), s.cols());
                    for r in 0..s.rows() {
                        let srow = s.row_slice(r);
                        let grow = grad.row_slice(r);
                        let dot: f32 = srow.iter().zip(grow).map(|(&sv, &gv)| sv * gv).sum();
                        for ((o, &sv), &gv) in dx.row_slice_mut(r).iter_mut().zip(srow).zip(grow) {
                            *o = sv * (gv - dot);
                        }
                    }
                    self.add_grad(x, &dx);
                }
                Op::LayerNormRows { x, eps } => {
                    let xv = self.nodes[x.0].value.clone();
                    let y = &self.nodes[i].value;
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    let n = xv.cols() as f32;
                    for r in 0..xv.rows() {
                        let xrow = xv.row_slice(r);
                        let yrow = y.row_slice(r);
                        let grow = grad.row_slice(r);
                        let mean: f32 = xrow.iter().sum::<f32>() / n;
                        let var: f32 = xrow.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
                        let inv = 1.0 / (var + eps).sqrt();
                        let g_mean: f32 = grow.iter().sum::<f32>() / n;
                        let gy_mean: f32 = grow.iter().zip(yrow).map(|(&g, &yv)| g * yv).sum::<f32>() / n;
                        for ((o, (&g, &yv)), _) in dx
                            .row_slice_mut(r)
                            .iter_mut()
                            .zip(grow.iter().zip(yrow))
                            .zip(xrow)
                        {
                            *o = inv * (g - g_mean - yv * gy_mean);
                        }
                    }
                    self.add_grad(x, &dx);
                }
                Op::VCat(a, b) => {
                    let arows = self.nodes[a.0].value.rows();
                    let da = grad.slice_rows(0, arows);
                    let db = grad.slice_rows(arows, grad.rows() - arows);
                    self.add_grad(a, &da);
                    self.add_grad(b, &db);
                }
                Op::HCat(a, b) => {
                    let acols = self.nodes[a.0].value.cols();
                    let da = grad.slice_cols(0, acols);
                    let db = grad.slice_cols(acols, grad.cols() - acols);
                    self.add_grad(a, &da);
                    self.add_grad(b, &db);
                }
                Op::SliceRows { x, start, len } => {
                    let xv = &self.nodes[x.0].value;
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..len {
                        let src = grad.row_slice(r);
                        dx.row_slice_mut(start + r).copy_from_slice(src);
                    }
                    self.add_grad(x, &dx);
                }
                Op::SliceCols { x, start, len } => {
                    let xv = &self.nodes[x.0].value;
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        let src = grad.row_slice(r);
                        dx.row_slice_mut(r)[start..start + len].copy_from_slice(src);
                    }
                    self.add_grad(x, &dx);
                }
                Op::Transpose(x) => {
                    let dx = grad.transpose();
                    self.add_grad(x, &dx);
                }
                Op::MeanRows(x) => {
                    let xv = &self.nodes[x.0].value;
                    let m = xv.rows() as f32;
                    let mut dx = Matrix::zeros(xv.rows(), xv.cols());
                    for r in 0..xv.rows() {
                        for (o, &g) in dx.row_slice_mut(r).iter_mut().zip(grad.as_slice()) {
                            *o = g / m;
                        }
                    }
                    self.add_grad(x, &dx);
                }
                Op::Sum(x) => {
                    let xv = &self.nodes[x.0].value;
                    let g = grad.item();
                    let dx = Matrix::full(xv.rows(), xv.cols(), g);
                    self.add_grad(x, &dx);
                }
                Op::GatherParamRows { .. } => {
                    // Routed to the parameter store by accumulate_param_grads.
                }
                Op::MulConstMask(x, mask) => {
                    let dx = grad.zip(&mask, |g, m| g * m);
                    self.add_grad(x, &dx);
                }
                Op::Square(x) => {
                    let dx = grad.zip(&self.nodes[x.0].value, |g, xv| g * 2.0 * xv);
                    self.add_grad(x, &dx);
                }
                Op::Recip(x) => {
                    let dx = grad.zip(&self.nodes[x.0].value, |g, xv| -g / (xv * xv));
                    self.add_grad(x, &dx);
                }
                Op::Ln1p(x) => {
                    let dx = grad.zip(&self.nodes[x.0].value, |g, xv| g / (1.0 + xv));
                    self.add_grad(x, &dx);
                }
                Op::BceWithLogitsSum { logits, targets, pos_weight } => {
                    let g = grad.item();
                    // d/dz [pw·y·softplus(-z) + (1-y)·softplus(z)]
                    //   = (1-y)·σ(z) - pw·y·(1-σ(z)).
                    let dz = self.nodes[logits.0].value.zip(&targets, |z, y| {
                        let s = sigmoid_f(z);
                        g * ((1.0 - y) * s - pos_weight * y * (1.0 - s))
                    });
                    self.add_grad(logits, &dz);
                }
                Op::SoftmaxXentSum { logits, targets } => {
                    let g = grad.item();
                    let mut dz = self.nodes[logits.0].value.softmax_rows();
                    for (r, &t) in targets.iter().enumerate() {
                        let v = dz.get(r, t);
                        dz.set(r, t, v - 1.0);
                    }
                    let dz = dz.map(|v| v * g);
                    self.add_grad(logits, &dz);
                }
            }
        }
    }

    /// Adds every parameter-leaf gradient (and gathered-row gradient) into
    /// the parameter store. Call once after [`Tape::backward`].
    pub fn accumulate_param_grads(&self, store: &mut ParamStore) {
        for node in &self.nodes {
            match (&node.op, &node.grad) {
                (Op::Leaf { param: Some(pid) }, Some(g)) => {
                    store.grad_mut(*pid).axpy(1.0, g);
                }
                (Op::GatherParamRows { param, indices }, Some(g)) => {
                    let pg = store.grad_mut(*param);
                    for (r, &idx) in indices.iter().enumerate() {
                        let src = g.row_slice(r);
                        let dst = pg.row_slice_mut(idx);
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check of `d loss / d input` for a scalar-valued
    /// function built on the tape.
    fn grad_check(
        build: impl Fn(&mut Tape, NodeId) -> NodeId,
        input: Matrix,
        tol: f32,
    ) {
        // Analytic gradient.
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x);

        // Numeric gradient.
        let eps = 1e-3f32;
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[idx] -= eps;
            let f = |m: Matrix| {
                let mut t = Tape::new();
                let x = t.leaf(m);
                let l = build(&mut t, x);
                t.value(l).item()
            };
            let numeric = (f(plus) - f(minus)) / (2.0 * eps);
            let a = analytic.as_slice()[idx];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "grad mismatch at {idx}: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_check_matmul_chain() {
        let w = Matrix::from_vec(3, 2, vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.7]);
        grad_check(
            move |t, x| {
                let wn = t.leaf(w.clone());
                let y = t.matmul(x, wn);
                let s = t.square(y);
                t.sum(s)
            },
            Matrix::from_vec(2, 3, vec![1.0, -1.0, 0.5, 0.2, 0.8, -0.3]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_activations() {
        let input = Matrix::from_vec(1, 5, vec![-1.2, -0.1, 0.0, 0.4, 2.0]);
        for act in ["relu", "gelu", "sigmoid", "tanh"] {
            grad_check(
                move |t, x| {
                    let y = match act {
                        "relu" => t.relu(x),
                        "gelu" => t.gelu(x),
                        "sigmoid" => t.sigmoid(x),
                        _ => t.tanh(x),
                    };
                    let s = t.square(y);
                    t.sum(s)
                },
                input.clone(),
                2e-2,
            );
        }
    }

    #[test]
    fn grad_check_softmax_rows() {
        grad_check(
            |t, x| {
                let s = t.softmax_rows(x);
                let sq = t.square(s);
                t.sum(sq)
            },
            Matrix::from_vec(2, 3, vec![0.1, 0.5, -0.2, 1.0, -1.0, 0.0]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_layer_norm() {
        grad_check(
            |t, x| {
                let y = t.layer_norm_rows(x, 1e-5);
                let w = t.leaf(Matrix::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.3]));
                let z = t.mul_row(y, w);
                let s = t.square(z);
                t.sum(s)
            },
            Matrix::from_vec(2, 4, vec![0.3, -0.8, 1.5, 0.1, 2.0, 2.1, 1.9, 2.2]),
            2e-2,
        );
    }

    #[test]
    fn grad_check_concat_slice_transpose() {
        grad_check(
            |t, x| {
                let a = t.slice_rows(x, 0, 1);
                let b = t.slice_rows(x, 1, 1);
                let v = t.vcat(a, b);
                let h = t.hcat(v, v);
                let tr = t.transpose(h);
                let s = t.square(tr);
                t.sum(s)
            },
            Matrix::from_vec(2, 3, vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.6]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_bce_with_logits() {
        let targets = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        grad_check(
            move |t, x| t.bce_with_logits_sum(x, targets.clone()),
            Matrix::from_vec(1, 4, vec![0.5, -0.3, 2.0, -1.5]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_weighted_bce_with_logits() {
        let targets = Matrix::from_vec(1, 4, vec![1.0, 0.0, 1.0, 0.0]);
        grad_check(
            move |t, x| t.bce_with_logits_weighted_sum(x, targets.clone(), 7.5),
            Matrix::from_vec(1, 4, vec![0.5, -0.3, 2.0, -1.5]),
            1e-2,
        );
    }

    #[test]
    fn weighted_bce_scales_only_positive_terms() {
        let mut tape = Tape::new();
        let z = tape.leaf(Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        // One positive, one negative, logits 0: base loss ln2 each.
        let y = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let plain = tape.bce_with_logits_sum(z, y.clone());
        let weighted = tape.bce_with_logits_weighted_sum(z, y, 3.0);
        let ln2 = std::f32::consts::LN_2;
        assert!((tape.value(plain).item() - 2.0 * ln2).abs() < 1e-5);
        assert!((tape.value(weighted).item() - (3.0 + 1.0) * ln2).abs() < 1e-5);
    }

    #[test]
    fn grad_check_softmax_xent() {
        grad_check(
            |t, x| t.softmax_xent_sum(x, vec![2, 0]),
            Matrix::from_vec(2, 3, vec![0.2, -0.1, 0.4, 1.0, 0.3, -0.7]),
            1e-2,
        );
    }

    #[test]
    fn grad_check_awl_scalar_ops() {
        // loss = L/(2w^2) + ln(1+w^2) with L fixed: check grad wrt w.
        grad_check(
            |t, w| {
                let l = t.leaf(Matrix::scalar(3.0));
                let w2 = t.square(w);
                let inv = t.recip(w2);
                let half = t.scale(inv, 0.5);
                let weighted = t.mul(l, half);
                let reg = t.ln1p(w2);
                let total = t.add(weighted, reg);
                t.sum(total)
            },
            Matrix::scalar(0.8),
            1e-2,
        );
    }

    #[test]
    fn grad_check_mean_rows_and_add_row() {
        grad_check(
            |t, x| {
                let m = t.mean_rows(x);
                let y = t.add_row(x, m);
                let s = t.square(y);
                t.sum(s)
            },
            Matrix::from_vec(3, 2, vec![0.1, 0.9, -0.4, 0.2, 0.7, -0.1]),
            1e-2,
        );
    }

    #[test]
    fn param_grads_route_to_store() {
        let mut store = ParamStore::new(0);
        let w = store.normal("w", 2, 2, 0.5);
        let e = store.normal("emb", 4, 2, 0.5);
        let mut tape = Tape::new();
        let x = tape.gather_param_rows(&store, e, &[1, 3, 1]);
        let wn = tape.param(&store, w);
        let y = tape.matmul(x, wn);
        let sq = tape.square(y);
        let loss = tape.sum(sq);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert!(store.grad(w).sq_norm() > 0.0);
        let eg = store.grad(e);
        // Row 1 gathered twice, row 3 once, rows 0/2 never.
        assert!(eg.row_slice(1).iter().any(|&v| v != 0.0));
        assert!(eg.row_slice(3).iter().any(|&v| v != 0.0));
        assert!(eg.row_slice(0).iter().all(|&v| v == 0.0));
        assert!(eg.row_slice(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shared_param_accumulates_both_uses() {
        // Same param used twice in the graph (the ADTD towers share
        // transformer parameters); grads must sum across uses.
        let mut store = ParamStore::new(1);
        let w = store.normal("w", 1, 1, 1.0);
        let mut tape = Tape::new();
        let w1 = tape.param(&store, w);
        let w2 = tape.param(&store, w);
        let prod = tape.mul(w1, w2); // w^2: d/dw = 2w
        let loss = tape.sum(prod);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        let expected = 2.0 * store.value(w).item();
        assert!((store.grad(w).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn unused_nodes_get_zero_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::scalar(1.0));
        let y = tape.leaf(Matrix::scalar(2.0));
        let loss = tape.sum(x);
        tape.backward(loss);
        assert_eq!(tape.grad(y).item(), 0.0);
        assert_eq!(tape.grad(x).item(), 1.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_nonscalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 2));
        tape.backward(x);
    }

    #[test]
    fn dropout_mask_blocks_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let mask = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
        let y = tape.mul_const_mask(x, mask);
        let loss = tape.sum(y);
        tape.backward(loss);
        let g = tape.grad(x);
        assert_eq!(g.as_slice(), &[0.0, 2.0]);
    }
}
