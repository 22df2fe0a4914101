//! Execution backends: the [`Forward`] trait abstracting the forward op
//! set, and the tape-free [`InferExec`] serving backend.
//!
//! Training and serving have opposite needs. Training wants a recorded
//! DAG it can differentiate — that is [`Tape`], which clones parameter
//! matrices into leaf nodes and allocates a fresh [`Matrix`] per op so
//! the backward pass can revisit every intermediate. Serving wants none
//! of that: `predict_meta` / `predict_content` never call `backward`, so
//! every tape node is pure overhead.
//!
//! [`Forward`] captures the op surface both paths share (matmul, adds,
//! activations, layer norm, softmax, slicing, concatenation, gathers).
//! Model forwards written against `impl Forward` run unchanged on either
//! backend:
//!
//! * [`Tape`] implements it by delegating to its recording constructors —
//!   the training path is untouched.
//! * [`InferExec`] evaluates eagerly into an arena of scratch buffers.
//!   No DAG is built, parameter nodes are resolved as references into the
//!   [`ParamStore`] (never cloned), and buffers are recycled across
//!   sessions, so a warmed executor performs no allocation at all on
//!   steady-state prediction calls.
//!
//! Both backends draw on [`crate::kernels`], whose every matmul variant
//! (plain lanes on the tape; packed, register-tiled and run-time
//! dispatched when serving) performs the same per-element operation
//! sequence, and they share the row kernels and activation scalars
//! outright, so their forward values are bit-identical — the parity
//! tests assert a 1e-5 tolerance but in practice observe exact equality.
//!
//! On top of the shared op set, [`Forward`] exposes *fused* composites
//! (`linear`, `linear_act`, `softmax_rows_scaled`, `layer_norm_affine`,
//! `matmul_bt`) with default implementations built from the primitives:
//! the tape keeps recording the exact op sequence it always did, while
//! [`ExecSession`] overrides them with single-pass kernels constructed to
//! be bit-identical to the composed form. The serving executor also packs
//! static weight matrices into SIMD-friendly column panels once and
//! caches them per [`ParamId`] (validated against the store's
//! `(uid, version)`, so online weight updates repack automatically), and
//! can run its matmuls row-parallel — and attention parallel over
//! (sequence, head) — on [`crate::pool::KernelPool`] when
//! `kernel_threads > 1`, with results provably independent of the thread
//! count.

use crate::kernels::{self, Act, PackedB};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{NodeId, Tape};
use std::collections::HashMap;

/// The forward op set shared by the training ([`Tape`]) and serving
/// ([`InferExec`]) backends.
///
/// Handles returned by one backend instance are only meaningful with
/// that instance. Methods taking a [`ParamStore`] must receive the same
/// store for every call within a session.
pub trait Forward {
    /// A constant / input leaf owning `value`.
    fn leaf(&mut self, value: Matrix) -> NodeId;

    /// A leaf referencing the trainable parameter `pid`.
    fn param(&mut self, store: &ParamStore, pid: ParamId) -> NodeId;

    /// Embedding lookup: gathers `indices` rows of the parameter matrix.
    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId;

    /// The forward value of a node.
    fn value(&self, id: NodeId) -> &Matrix;

    /// Matrix product.
    fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Elementwise sum of two same-shape nodes.
    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Elementwise product of two same-shape nodes.
    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Broadcast add of a `[1, n]` row vector to every row of `[m, n]`.
    fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId;

    /// Broadcast multiply of every row of `[m, n]` by a `[1, n]` row.
    fn mul_row(&mut self, x: NodeId, row: NodeId) -> NodeId;

    /// Scalar scaling.
    fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId;

    /// Rectified linear unit.
    fn relu(&mut self, x: NodeId) -> NodeId;

    /// GELU activation (tanh approximation, as BERT uses).
    fn gelu(&mut self, x: NodeId) -> NodeId;

    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: NodeId) -> NodeId;

    /// Hyperbolic tangent.
    fn tanh(&mut self, x: NodeId) -> NodeId;

    /// Row-wise softmax.
    fn softmax_rows(&mut self, x: NodeId) -> NodeId;

    /// Row-wise layer normalization without the affine transform.
    fn layer_norm_rows(&mut self, x: NodeId, eps: f32) -> NodeId;

    /// Vertical concatenation (token axis).
    fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Horizontal concatenation (feature axis).
    fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Copy of rows `[start, start+len)`.
    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId;

    /// Copy of columns `[start, start+len)`.
    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId;

    /// Transpose.
    fn transpose(&mut self, x: NodeId) -> NodeId;

    /// Column means: `[m, n] -> [1, n]`.
    fn mean_rows(&mut self, x: NodeId) -> NodeId;

    /// A leaf holding a copy of `value`. Backends with reusable buffers
    /// override this to copy into recycled storage instead of cloning.
    fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        self.leaf(value.clone())
    }

    /// A leaf holding the given feature rows stacked into a matrix — the
    /// backend-aware replacement for building a [`Matrix`] out of
    /// per-column feature vectors and then cloning it into a leaf.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged.
    fn leaf_rows(&mut self, rows: &[&[f32]]) -> NodeId {
        self.leaf(stack_rows(rows))
    }

    /// A leaf holding `indices` rows gathered from `src`.
    fn leaf_gather(&mut self, src: &Matrix, indices: &[usize]) -> NodeId {
        self.leaf(src.gather_rows(indices))
    }

    /// Gathers `indices` rows of a node into a `[indices.len(), cols]`
    /// node. The default builds a slice/vcat chain (differentiable on a
    /// tape); eager backends override it with a single gather.
    ///
    /// # Panics
    /// Panics when `indices` is empty.
    fn gather_rows(&mut self, x: NodeId, indices: &[usize]) -> NodeId {
        assert!(!indices.is_empty(), "cannot gather zero rows");
        let mut acc: Option<NodeId> = None;
        for &p in indices {
            let row = self.slice_rows(x, p, 1);
            acc = Some(match acc {
                Some(prev) => self.vcat(prev, row),
                None => row,
            });
        }
        acc.expect("non-empty indices")
    }

    /// Vertical concatenation of many nodes — the batch-assembly
    /// primitive behind micro-batched serving, where B column sequences
    /// are row-stacked into one node. The default folds [`Forward::vcat`]
    /// pairwise (differentiable on a tape); eager backends override it
    /// with a single-allocation copy.
    ///
    /// # Panics
    /// Panics when `parts` is empty.
    fn vcat_all(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "cannot vcat zero parts");
        let mut acc = parts[0];
        for &p in &parts[1..] {
            acc = self.vcat(acc, p);
        }
        acc
    }

    // ---- fused composites --------------------------------------------
    //
    // Defaults compose the primitives above, so the tape records the
    // exact op sequence it always did (and stays differentiable). The
    // serving backend overrides them with single-pass kernels that are
    // bit-identical to the composed form.

    /// Applies an [`Act`] activation elementwise ([`Act::Ident`] is the
    /// identity and returns `x` itself).
    fn activation(&mut self, x: NodeId, act: Act) -> NodeId {
        match act {
            Act::Ident => x,
            Act::Relu => self.relu(x),
            Act::Gelu => self.gelu(x),
            Act::Sigmoid => self.sigmoid(x),
            Act::Tanh => self.tanh(x),
        }
    }

    /// Affine map `x @ W + b` with `W`, `b` trainable parameters.
    fn linear(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        let wn = self.param(store, w);
        let bn = self.param(store, b);
        let y = self.matmul(x, wn);
        self.add_row(y, bn)
    }

    /// `act(x @ W + b)` — the full dense-layer forward in one call.
    fn linear_act(
        &mut self,
        store: &ParamStore,
        x: NodeId,
        w: ParamId,
        b: ParamId,
        act: Act,
    ) -> NodeId {
        let y = self.linear(store, x, w, b);
        self.activation(y, act)
    }

    /// `a @ b^T` — the attention-score product. The default materializes
    /// the transpose; the serving backend runs a transpose-free kernel.
    fn matmul_bt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let bt = self.transpose(b);
        self.matmul(a, bt)
    }

    /// `softmax_rows(alpha * x)` — scaled attention scores.
    fn softmax_rows_scaled(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let s = self.scale(x, alpha);
        self.softmax_rows(s)
    }

    /// Vertical concatenation of row *ranges* `(node, start, len)` —
    /// the key/value assembly primitive of batched cross-attention,
    /// where each sequence's KV stack interleaves rows of different
    /// nodes. The default slices each range out and folds
    /// [`Forward::vcat_all`] (differentiable on a tape); the serving
    /// backend overrides it with a single-allocation copy straight from
    /// the source buffers.
    ///
    /// # Panics
    /// Panics when `parts` is empty or a range is out of bounds.
    fn vcat_rows(&mut self, parts: &[(NodeId, usize, usize)]) -> NodeId {
        assert!(!parts.is_empty(), "cannot vcat zero ranges");
        let sliced: Vec<NodeId> = parts.iter().map(|&(p, start, len)| rows_or_whole(self, p, start, len)).collect();
        self.vcat_all(&sliced)
    }

    /// Block-diagonal multi-head attention over row-stacked sequences:
    /// `q` is the projected query stack `[Σ q_lens, dim]`, `k`/`v` the
    /// projected key/value stacks `[Σ kv_lens, dim]`, and sequence `b`'s
    /// queries attend only to sequence `b`'s keys/values. Returns the
    /// head-merged context `[Σ q_lens, dim]` (pre-output-projection).
    ///
    /// The default composes the primitive ops — per head, column slices
    /// of the stacks, per-sequence row slices (none when one sequence is
    /// the whole stack), `matmul_bt`, `softmax_rows_scaled`, `matmul`,
    /// then `vcat_all`/`hcat` assembly — so the tape records the exact
    /// differentiable sequence. The serving backend overrides it with
    /// [`crate::kernels::attn_blocks_into`], which reads the stacks in
    /// place and writes the merged context directly: bit-identical, with
    /// no slicing or concatenation.
    ///
    /// # Panics
    /// Panics when the batch is empty, the length vectors disagree, or
    /// `heads` does not divide the stack width.
    #[allow(clippy::too_many_arguments)] // the full attention-block geometry
    fn attn_blocks(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        q_lens: &[usize],
        kv_lens: &[usize],
        heads: usize,
        scale: f32,
    ) -> NodeId {
        assert_eq!(q_lens.len(), kv_lens.len(), "per-sequence length mismatch");
        assert!(!q_lens.is_empty(), "cannot attend over an empty batch");
        let dim = self.value(q).cols();
        assert!(heads > 0 && dim.is_multiple_of(heads), "heads {heads} must divide dim {dim}");
        let dh = dim / heads;
        let mut merged: Option<NodeId> = None;
        let mut blocks = Vec::with_capacity(q_lens.len());
        for h in 0..heads {
            let qh = self.slice_cols(q, h * dh, dh);
            let kh = self.slice_cols(k, h * dh, dh);
            let vh = self.slice_cols(v, h * dh, dh);
            blocks.clear();
            let (mut qo, mut ko) = (0, 0);
            for (&ql, &kl) in q_lens.iter().zip(kv_lens) {
                let qb = rows_or_whole(self, qh, qo, ql);
                let kb = rows_or_whole(self, kh, ko, kl);
                let vb = rows_or_whole(self, vh, ko, kl);
                let scores = self.matmul_bt(qb, kb);
                let attn = self.softmax_rows_scaled(scores, scale);
                blocks.push(self.matmul(attn, vb));
                qo += ql;
                ko += kl;
            }
            let out = self.vcat_all(&blocks);
            merged = Some(match merged {
                Some(prev) => self.hcat(prev, out),
                None => out,
            });
        }
        merged.expect("at least one head")
    }

    /// `layer_norm(x) * gain + bias` — the full LayerNorm module forward.
    fn layer_norm_affine(
        &mut self,
        store: &ParamStore,
        x: NodeId,
        gain: ParamId,
        bias: ParamId,
        eps: f32,
    ) -> NodeId {
        let normed = self.layer_norm_rows(x, eps);
        let g = self.param(store, gain);
        let b = self.param(store, bias);
        let scaled = self.mul_row(normed, g);
        self.add_row(scaled, b)
    }
}

/// Rows `[start, start+len)` of `x` — `x` itself, with no copy recorded,
/// when the range is the whole node. The composed defaults use this so a
/// one-sequence batch costs the tape nothing over the unbatched ops.
fn rows_or_whole<E: Forward + ?Sized>(ex: &mut E, x: NodeId, start: usize, len: usize) -> NodeId {
    if start == 0 && len == ex.value(x).rows() {
        x
    } else {
        ex.slice_rows(x, start, len)
    }
}

/// Stacks row slices into a dense matrix.
fn stack_rows(rows: &[&[f32]]) -> Matrix {
    assert!(!rows.is_empty(), "cannot stack zero rows");
    let cols = rows[0].len();
    let mut out = Matrix::zeros(rows.len(), cols);
    for (r, src) in rows.iter().enumerate() {
        assert_eq!(src.len(), cols, "ragged feature rows");
        out.row_slice_mut(r).copy_from_slice(src);
    }
    out
}

impl Forward for Tape {
    fn leaf(&mut self, value: Matrix) -> NodeId {
        Tape::leaf(self, value)
    }

    fn param(&mut self, store: &ParamStore, pid: ParamId) -> NodeId {
        Tape::param(self, store, pid)
    }

    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId {
        Tape::gather_param_rows(self, store, pid, indices)
    }

    fn value(&self, id: NodeId) -> &Matrix {
        Tape::value(self, id)
    }

    fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::matmul(self, a, b)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::add(self, a, b)
    }

    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::mul(self, a, b)
    }

    fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        Tape::add_row(self, x, row)
    }

    fn mul_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        Tape::mul_row(self, x, row)
    }

    fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        Tape::scale(self, x, alpha)
    }

    fn relu(&mut self, x: NodeId) -> NodeId {
        Tape::relu(self, x)
    }

    fn gelu(&mut self, x: NodeId) -> NodeId {
        Tape::gelu(self, x)
    }

    fn sigmoid(&mut self, x: NodeId) -> NodeId {
        Tape::sigmoid(self, x)
    }

    fn tanh(&mut self, x: NodeId) -> NodeId {
        Tape::tanh(self, x)
    }

    fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        Tape::softmax_rows(self, x)
    }

    fn layer_norm_rows(&mut self, x: NodeId, eps: f32) -> NodeId {
        Tape::layer_norm_rows(self, x, eps)
    }

    fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::vcat(self, a, b)
    }

    fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::hcat(self, a, b)
    }

    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        Tape::slice_rows(self, x, start, len)
    }

    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        Tape::slice_cols(self, x, start, len)
    }

    fn transpose(&mut self, x: NodeId) -> NodeId {
        Tape::transpose(self, x)
    }

    fn mean_rows(&mut self, x: NodeId) -> NodeId {
        Tape::mean_rows(self, x)
    }
}

/// Where a session node's value lives: a recycled arena buffer, or a
/// parameter resolved by reference (never copied).
#[derive(Clone, Copy)]
enum Slot {
    Buf(usize),
    Param(ParamId),
}

/// A packed weight with the store identity/version it was packed from.
struct PackedEntry {
    store_uid: u64,
    version: u64,
    panels: PackedB,
}

/// The tape-free serving executor: an arena of scratch [`Matrix`] buffers
/// recycled across calls.
///
/// An `InferExec` is cheap to create but meant to be long-lived — one per
/// worker thread — because its buffers persist across
/// [`InferExec::session`] calls: the first prediction sizes the arena and
/// every subsequent same-shaped prediction runs allocation-free. Weight
/// matrices used as matmul right-hand sides are additionally packed into
/// SIMD column panels once per worker and cached across sessions (serving
/// weights are static); the cache is validated against the parameter
/// store's `(uid, version)`, so swapping stores or updating weights
/// online repacks lazily instead of serving stale panels.
#[derive(Default)]
pub struct InferExec {
    bufs: Vec<Matrix>,
    slots: Vec<Slot>,
    live: usize,
    /// Kernel thread count (0 is treated as 1 so `Default` stays derived).
    threads: usize,
    packed: HashMap<ParamId, PackedEntry>,
}

impl InferExec {
    /// An empty executor; buffers are grown on first use.
    pub fn new() -> InferExec {
        InferExec::default()
    }

    /// An empty executor whose matmuls may use up to `threads` threads.
    pub fn with_kernel_threads(threads: usize) -> InferExec {
        let mut exec = InferExec::default();
        exec.set_kernel_threads(threads);
        exec
    }

    /// Sets the matmul thread budget (clamped to at least 1). Results are
    /// bit-identical for every setting; this only trades latency.
    pub fn set_kernel_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The effective matmul thread budget.
    pub fn kernel_threads(&self) -> usize {
        self.threads.max(1)
    }

    /// Number of weight matrices currently held in packed form.
    pub fn packed_weight_count(&self) -> usize {
        self.packed.len()
    }

    /// Starts a forward session over `store`. All buffers from previous
    /// sessions become recyclable; their contents are dead. Packed
    /// weights persist (and are revalidated lazily against `store`).
    pub fn session<'s>(&'s mut self, store: &'s ParamStore) -> ExecSession<'s> {
        self.live = 0;
        self.slots.clear();
        ExecSession { exec: self, store }
    }

    /// Number of arena buffers currently owned (a stable count across
    /// repeated same-shape sessions demonstrates buffer reuse).
    pub fn buffer_count(&self) -> usize {
        self.bufs.len()
    }

    fn alloc(&mut self, rows: usize, cols: usize) -> usize {
        let idx = self.live;
        if idx == self.bufs.len() {
            self.bufs.push(Matrix::zeros(rows, cols));
        } else {
            self.bufs[idx].reset_shape(rows, cols);
        }
        self.live += 1;
        idx
    }

    /// Guarantees a current packed copy of `pid`'s value. The version
    /// check is store-wide (any parameter mutation bumps it), which is
    /// conservative: after an online update every weight repacks on next
    /// use — correct, and negligible next to the update itself.
    fn ensure_packed(&mut self, store: &ParamStore, pid: ParamId) {
        let (uid, version) = (store.uid(), store.version());
        let fresh = matches!(
            self.packed.get(&pid),
            Some(e) if e.store_uid == uid && e.version == version
        );
        if !fresh {
            self.packed.insert(
                pid,
                PackedEntry { store_uid: uid, version, panels: PackedB::pack(store.value(pid)) },
            );
        }
    }
}

/// One forward pass on an [`InferExec`]: borrows the executor's arena and
/// the parameter store, and implements [`Forward`] by eager evaluation.
pub struct ExecSession<'s> {
    exec: &'s mut InferExec,
    store: &'s ParamStore,
}

impl ExecSession<'_> {
    fn get(&self, id: NodeId) -> &Matrix {
        match self.exec.slots[id.index()] {
            Slot::Buf(i) => &self.exec.bufs[i],
            Slot::Param(p) => self.store.value(p),
        }
    }

    fn push_slot(&mut self, slot: Slot) -> NodeId {
        self.exec.slots.push(slot);
        NodeId::from_index(self.exec.slots.len() - 1)
    }

    /// Allocates a `[rows, cols]` output buffer, lets `f` fill it (the
    /// buffer contents are unspecified on entry — `f` must overwrite
    /// every element), and returns its node. The buffer is temporarily
    /// moved out of the arena so `f` can read other nodes through
    /// `&self` while writing the output.
    fn compute(&mut self, rows: usize, cols: usize, f: impl FnOnce(&Self, &mut Matrix)) -> NodeId {
        let oi = self.exec.alloc(rows, cols);
        let mut out = std::mem::take(&mut self.exec.bufs[oi]);
        f(self, &mut out);
        debug_assert!(out.all_finite(), "non-finite forward value");
        self.exec.bufs[oi] = out;
        self.push_slot(Slot::Buf(oi))
    }

    fn act_into(&mut self, x: NodeId, act: Act) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            out.copy_from(s.get(x));
            act.apply_slice(out.as_mut_slice());
        })
    }

    fn zip_into(&mut self, a: NodeId, b: NodeId, f: impl Fn(f32, f32) -> f32) -> NodeId {
        let (rows, cols) = self.get(a).shape();
        assert_eq!(self.get(b).shape(), (rows, cols), "elementwise shape mismatch");
        self.compute(rows, cols, |s, out| {
            let av = s.get(a).as_slice();
            let bv = s.get(b).as_slice();
            for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(av).zip(bv) {
                *o = f(x, y);
            }
        })
    }
}

impl Forward for ExecSession<'_> {
    fn leaf(&mut self, value: Matrix) -> NodeId {
        self.leaf_copy(&value)
    }

    fn param(&mut self, store: &ParamStore, pid: ParamId) -> NodeId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "param() must use the session's store"
        );
        let _ = store;
        self.push_slot(Slot::Param(pid))
    }

    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "gather_param_rows() must use the session's store"
        );
        let _ = store;
        let cols = self.store.value(pid).cols();
        self.compute(indices.len(), cols, |s, out| {
            let table = s.store.value(pid);
            for (r, &i) in indices.iter().enumerate() {
                out.row_slice_mut(r).copy_from_slice(table.row_slice(i));
            }
        })
    }

    fn value(&self, id: NodeId) -> &Matrix {
        self.get(id)
    }

    fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let rows = self.get(a).rows();
        let cols = self.get(b).cols();
        let threads = self.exec.kernel_threads();
        // A parameter right-hand side is a static serving weight: run the
        // packed-panel kernel against the cached pack.
        if let Slot::Param(pid) = self.exec.slots[b.index()] {
            self.exec.ensure_packed(self.store, pid);
            return self.compute(rows, cols, |s, out| {
                let pb = &s.exec.packed[&pid].panels;
                kernels::matmul_packed_into(s.get(a), pb, None, Act::Ident, threads, out)
            });
        }
        self.compute(rows, cols, |s, out| {
            kernels::matmul_into_mt(s.get(a), s.get(b), threads, out)
        })
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_into(a, b, |x, y| x + y)
    }

    fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.zip_into(a, b, |x, y| x * y)
    }

    fn add_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        let rv = self.get(row);
        assert_eq!(rv.rows(), 1, "add_row: rhs must be a row vector");
        assert_eq!(cols, rv.cols(), "add_row: column mismatch");
        self.compute(rows, cols, |s, out| {
            let rvs = s.get(row).as_slice();
            for r in 0..rows {
                let src = s.get(x).row_slice(r);
                for ((o, &v), &b) in out.row_slice_mut(r).iter_mut().zip(src).zip(rvs) {
                    *o = v + b;
                }
            }
        })
    }

    fn mul_row(&mut self, x: NodeId, row: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        let rv = self.get(row);
        assert_eq!(rv.rows(), 1, "mul_row: rhs must be a row vector");
        assert_eq!(cols, rv.cols(), "mul_row: column mismatch");
        self.compute(rows, cols, |s, out| {
            let rvs = s.get(row).as_slice();
            for r in 0..rows {
                let src = s.get(x).row_slice(r);
                for ((o, &v), &b) in out.row_slice_mut(r).iter_mut().zip(src).zip(rvs) {
                    *o = v * b;
                }
            }
        })
    }

    fn scale(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            for (o, &v) in out.as_mut_slice().iter_mut().zip(s.get(x).as_slice()) {
                *o = v * alpha;
            }
        })
    }

    fn relu(&mut self, x: NodeId) -> NodeId {
        self.act_into(x, Act::Relu)
    }

    fn gelu(&mut self, x: NodeId) -> NodeId {
        self.act_into(x, Act::Gelu)
    }

    fn sigmoid(&mut self, x: NodeId) -> NodeId {
        self.act_into(x, Act::Sigmoid)
    }

    fn tanh(&mut self, x: NodeId) -> NodeId {
        self.act_into(x, Act::Tanh)
    }

    fn softmax_rows(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            out.copy_from(s.get(x));
            out.softmax_rows_inplace();
        })
    }

    fn layer_norm_rows(&mut self, x: NodeId, eps: f32) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            out.copy_from(s.get(x));
            out.layer_norm_rows_inplace(eps);
        })
    }

    fn vcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ar, cols) = self.get(a).shape();
        let (br, bc) = self.get(b).shape();
        assert_eq!(cols, bc, "vcat column mismatch");
        self.compute(ar + br, cols, |s, out| {
            out.as_mut_slice()[..ar * cols].copy_from_slice(s.get(a).as_slice());
            out.as_mut_slice()[ar * cols..].copy_from_slice(s.get(b).as_slice());
        })
    }

    fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, ac) = self.get(a).shape();
        let (br, bc) = self.get(b).shape();
        assert_eq!(rows, br, "hcat row mismatch");
        self.compute(rows, ac + bc, |s, out| {
            for r in 0..rows {
                let dst = out.row_slice_mut(r);
                dst[..ac].copy_from_slice(s.get(a).row_slice(r));
                dst[ac..].copy_from_slice(s.get(b).row_slice(r));
            }
        })
    }

    fn slice_rows(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        assert!(start + len <= rows, "slice_rows out of range");
        self.compute(len, cols, |s, out| {
            let src = &s.get(x).as_slice()[start * cols..(start + len) * cols];
            out.as_mut_slice().copy_from_slice(src);
        })
    }

    fn slice_cols(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        assert!(start + len <= cols, "slice_cols out of range");
        self.compute(rows, len, |s, out| {
            for r in 0..rows {
                let src = &s.get(x).row_slice(r)[start..start + len];
                out.row_slice_mut(r).copy_from_slice(src);
            }
        })
    }

    fn transpose(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(cols, rows, |s, out| {
            let src = s.get(x);
            for r in 0..rows {
                for (c, &v) in src.row_slice(r).iter().enumerate() {
                    out.set(c, r, v);
                }
            }
        })
    }

    fn mean_rows(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        let m = rows as f32;
        self.compute(1, cols, |s, out| {
            out.fill_zero();
            let src = s.get(x);
            for r in 0..rows {
                for (o, &v) in out.as_mut_slice().iter_mut().zip(src.row_slice(r)) {
                    *o += v;
                }
            }
            for o in out.as_mut_slice() {
                *o /= m;
            }
        })
    }

    fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        let (rows, cols) = value.shape();
        self.compute(rows, cols, |_, out| out.copy_from(value))
    }

    fn leaf_rows(&mut self, rows: &[&[f32]]) -> NodeId {
        assert!(!rows.is_empty(), "cannot stack zero rows");
        let cols = rows[0].len();
        self.compute(rows.len(), cols, |_, out| {
            for (r, src) in rows.iter().enumerate() {
                assert_eq!(src.len(), cols, "ragged feature rows");
                out.row_slice_mut(r).copy_from_slice(src);
            }
        })
    }

    fn leaf_gather(&mut self, src: &Matrix, indices: &[usize]) -> NodeId {
        self.compute(indices.len(), src.cols(), |_, out| {
            for (r, &i) in indices.iter().enumerate() {
                out.row_slice_mut(r).copy_from_slice(src.row_slice(i));
            }
        })
    }

    fn gather_rows(&mut self, x: NodeId, indices: &[usize]) -> NodeId {
        assert!(!indices.is_empty(), "cannot gather zero rows");
        let (rows, cols) = self.get(x).shape();
        self.compute(indices.len(), cols, |s, out| {
            let src = s.get(x);
            for (r, &i) in indices.iter().enumerate() {
                assert!(i < rows, "gather index {i} out of {rows} rows");
                out.row_slice_mut(r).copy_from_slice(src.row_slice(i));
            }
        })
    }

    fn vcat_all(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "cannot vcat zero parts");
        if parts.len() == 1 {
            return parts[0];
        }
        let cols = self.get(parts[0]).cols();
        let total: usize = parts
            .iter()
            .map(|&p| {
                let (r, c) = self.get(p).shape();
                assert_eq!(c, cols, "vcat_all column mismatch");
                r
            })
            .sum();
        self.compute(total, cols, |s, out| {
            let mut off = 0;
            for &p in parts {
                let src = s.get(p).as_slice();
                out.as_mut_slice()[off..off + src.len()].copy_from_slice(src);
                off += src.len();
            }
        })
    }

    // ---- fused overrides: one pass, bit-identical to the defaults ----

    fn linear(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        self.linear_act(store, x, w, b, Act::Ident)
    }

    fn linear_act(
        &mut self,
        store: &ParamStore,
        x: NodeId,
        w: ParamId,
        b: ParamId,
        act: Act,
    ) -> NodeId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "linear_act() must use the session's store"
        );
        let _ = store;
        let rows = self.get(x).rows();
        let cols = self.store.value(w).cols();
        let threads = self.exec.kernel_threads();
        self.exec.ensure_packed(self.store, w);
        self.compute(rows, cols, |s, out| {
            let pb = &s.exec.packed[&w].panels;
            kernels::matmul_packed_into(s.get(x), pb, Some(s.store.value(b)), act, threads, out)
        })
    }

    fn matmul_bt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let rows = self.get(a).rows();
        let cols = self.get(b).rows();
        let threads = self.exec.kernel_threads();
        self.compute(rows, cols, |s, out| {
            kernels::matmul_bt_into_mt(s.get(a), s.get(b), threads, out)
        })
    }

    fn softmax_rows_scaled(&mut self, x: NodeId, alpha: f32) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            kernels::softmax_rows_scaled_into(s.get(x), alpha, out)
        })
    }

    fn vcat_rows(&mut self, parts: &[(NodeId, usize, usize)]) -> NodeId {
        assert!(!parts.is_empty(), "cannot vcat zero ranges");
        let cols = self.get(parts[0].0).cols();
        let total: usize = parts
            .iter()
            .map(|&(p, start, len)| {
                let (r, c) = self.get(p).shape();
                assert_eq!(c, cols, "vcat_rows column mismatch");
                assert!(start + len <= r, "vcat_rows range out of bounds");
                len
            })
            .sum();
        self.compute(total, cols, |s, out| {
            let mut off = 0;
            for &(p, start, len) in parts {
                let src = &s.get(p).as_slice()[start * cols..(start + len) * cols];
                out.as_mut_slice()[off..off + src.len()].copy_from_slice(src);
                off += src.len();
            }
        })
    }

    fn attn_blocks(
        &mut self,
        q: NodeId,
        k: NodeId,
        v: NodeId,
        q_lens: &[usize],
        kv_lens: &[usize],
        heads: usize,
        scale: f32,
    ) -> NodeId {
        let (rows, dim) = self.get(q).shape();
        let threads = self.exec.kernel_threads();
        self.compute(rows, dim, |s, out| {
            kernels::attn_blocks_into(
                s.get(q),
                s.get(k),
                s.get(v),
                q_lens,
                kv_lens,
                heads,
                scale,
                threads,
                out,
            )
        })
    }

    fn layer_norm_affine(
        &mut self,
        store: &ParamStore,
        x: NodeId,
        gain: ParamId,
        bias: ParamId,
        eps: f32,
    ) -> NodeId {
        debug_assert!(
            std::ptr::eq(store, self.store),
            "layer_norm_affine() must use the session's store"
        );
        let _ = store;
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            kernels::layer_norm_affine_into(
                s.get(x),
                s.store.value(gain),
                s.store.value(bias),
                eps,
                out,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(seed: u64) -> ParamStore {
        ParamStore::new(seed)
    }

    #[test]
    fn session_ops_match_tape_ops() {
        let mut store = store_with(7);
        let w = store.normal("w", 4, 3, 0.5);
        let x = Matrix::from_vec(2, 4, vec![0.3, -1.2, 0.8, 0.1, 2.0, -0.5, 0.0, 1.5]);

        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &x);
        let wt = Forward::param(&mut tape, &store, w);
        let yt = Forward::matmul(&mut tape, xt, wt);
        let st = Forward::sigmoid(&mut tape, yt);
        let taped = Forward::value(&tape, st).clone();

        let mut exec = InferExec::new();
        let mut s = exec.session(&store);
        let xs = s.leaf_copy(&x);
        let ws = s.param(&store, w);
        let ys = s.matmul(xs, ws);
        let ss = s.sigmoid(ys);
        assert_eq!(s.value(ss), &taped, "backends must agree exactly");
    }

    #[test]
    fn arena_buffers_are_reused_across_sessions() {
        let store = store_with(1);
        let x = Matrix::full(8, 8, 0.25);
        let mut exec = InferExec::new();
        let count_after = |exec: &mut InferExec| {
            let mut s = exec.session(&store);
            let a = s.leaf_copy(&x);
            let b = s.leaf_copy(&x);
            let c = s.matmul(a, b);
            let d = s.gelu(c);
            let e = s.layer_norm_rows(d, 1e-5);
            let _ = s.softmax_rows(e);
            exec.buffer_count()
        };
        let first = count_after(&mut exec);
        assert!(first > 0);
        for _ in 0..5 {
            assert_eq!(
                count_after(&mut exec),
                first,
                "steady-state sessions must not grow the arena"
            );
        }
    }

    #[test]
    fn param_nodes_resolve_by_reference() {
        let mut store = store_with(3);
        let w = store.normal("w", 16, 16, 0.1);
        let mut exec = InferExec::new();
        let mut s = exec.session(&store);
        let wn = s.param(&store, w);
        // The param node's value is the store's matrix itself.
        assert!(std::ptr::eq(s.value(wn), store.value(w)));
        // And it occupies no arena buffer.
        assert_eq!(exec.buffer_count(), 0);
    }

    #[test]
    fn fused_composites_match_tape_defaults_exactly() {
        let mut store = store_with(21);
        let w = store.normal("w", 6, 5, 0.4);
        let b = store.normal("b", 1, 5, 0.2);
        let g = store.constant("g", 1, 6, 1.1);
        let bb = store.constant("gb", 1, 6, -0.3);
        let x = Matrix::from_vec(3, 6, (0..18).map(|i| (i as f32 * 0.31).sin()).collect());
        let y = Matrix::from_vec(4, 6, (0..24).map(|i| (i as f32 * 0.17).cos()).collect());

        // Tape runs the *default* composed implementations.
        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &x);
        let yt = Forward::leaf_copy(&mut tape, &y);
        let lin = Forward::linear_act(&mut tape, &store, xt, w, b, Act::Gelu);
        let bt = Forward::matmul_bt(&mut tape, xt, yt);
        let sm = Forward::softmax_rows_scaled(&mut tape, bt, 0.125);
        let ln = Forward::layer_norm_affine(&mut tape, &store, xt, g, bb, 1e-5);
        let want_lin = Forward::value(&tape, lin).clone();
        let want_sm = Forward::value(&tape, sm).clone();
        let want_ln = Forward::value(&tape, ln).clone();

        // The session runs the fused kernels, at several thread counts.
        for threads in [1, 2, 4] {
            let mut exec = InferExec::with_kernel_threads(threads);
            let mut s = exec.session(&store);
            let xs = s.leaf_copy(&x);
            let ys = s.leaf_copy(&y);
            let lin_s = s.linear_act(&store, xs, w, b, Act::Gelu);
            let bt_s = s.matmul_bt(xs, ys);
            let sm_s = s.softmax_rows_scaled(bt_s, 0.125);
            let ln_s = s.layer_norm_affine(&store, xs, g, bb, 1e-5);
            assert_eq!(s.value(lin_s), &want_lin, "linear_act threads={threads}");
            assert_eq!(s.value(sm_s), &want_sm, "softmax_scaled threads={threads}");
            assert_eq!(s.value(ln_s), &want_ln, "layer_norm_affine threads={threads}");
        }
    }

    #[test]
    fn packed_weights_are_cached_and_invalidate_on_mutation() {
        let mut store = store_with(5);
        let w = store.normal("w", 8, 8, 0.3);
        let x = Matrix::full(2, 8, 0.5);
        let mut exec = InferExec::new();

        let run = |exec: &mut InferExec, store: &ParamStore| {
            let mut s = exec.session(store);
            let xs = s.leaf_copy(&x);
            let ws = s.param(store, w);
            let ys = s.matmul(xs, ws);
            s.value(ys).clone()
        };

        let before = run(&mut exec, &store);
        assert_eq!(exec.packed_weight_count(), 1, "weight packed on first use");
        assert_eq!(run(&mut exec, &store), before, "cached pack reused");
        assert_eq!(exec.packed_weight_count(), 1);

        // Mutating the weight must invalidate the pack.
        store.value_mut(w).as_mut_slice()[0] += 1.0;
        let after = run(&mut exec, &store);
        assert_ne!(after, before, "stale pack served after weight update");
        assert_eq!(after, x.matmul(store.value(w)), "repacked to current value");
    }

    #[test]
    fn gather_and_leaf_helpers_agree_with_defaults() {
        let store = store_with(4);
        let src = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[9.0, 9.0]];

        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &src);
        let gt = Forward::gather_rows(&mut tape, xt, &[2, 0, 2]);
        let lt = Forward::leaf_rows(&mut tape, &rows);
        let lg = Forward::leaf_gather(&mut tape, &src, &[3, 1]);
        let expected_g = Forward::value(&tape, gt).clone();
        let expected_l = Forward::value(&tape, lt).clone();
        let expected_lg = Forward::value(&tape, lg).clone();

        let mut exec = InferExec::new();
        let mut s = exec.session(&store);
        let xs = s.leaf_copy(&src);
        let gs = s.gather_rows(xs, &[2, 0, 2]);
        assert_eq!(s.value(gs), &expected_g);
        let ls = s.leaf_rows(&rows);
        assert_eq!(s.value(ls), &expected_l);
        let lgs = s.leaf_gather(&src, &[3, 1]);
        assert_eq!(s.value(lgs), &expected_lg);
    }
}
