//! Execution backends: the [`Forward`] seam between model code and
//! execution, its defining implementation on [`Tape`], and the tape-free
//! [`InferExec`] serving backend.
//!
//! Training and serving have opposite needs. Training wants a recorded
//! DAG it can differentiate — that is [`Tape`], which clones parameter
//! matrices into leaf nodes and allocates a fresh [`Matrix`] per op so
//! the backward pass can revisit every intermediate. Serving wants none
//! of that: prediction never calls `backward`, so every tape node is
//! pure overhead.
//!
//! [`Forward`] is the whole interface between the two: the 13 operations
//! the modules and the model bodies emit, and nothing else. There is one
//! body per model operation (a ragged, block-diagonal forward over a
//! batch of sequences — one sequence is a batch of one), and it is
//! written once against `impl Forward`:
//!
//! * [`Tape`] implements the seam out of its own recording ops.
//!   `linear` is `param · matmul · add_row`, `layer_norm_affine` is
//!   `layer_norm_rows · mul_row · add_row`, `attn_blocks` is the per-head,
//!   per-sequence slice / `matmul` / softmax / concatenate loop — each a
//!   differentiable composition of primitives. Those compositions are the
//!   **definition** of the 13 ops: training runs them, and every fused
//!   serving kernel is compared with them, byte for byte.
//! * [`ExecSession`] (a forward pass on an [`InferExec`]) evaluates each
//!   op eagerly with one single-pass kernel into an arena of scratch
//!   buffers. No DAG is built, parameters are read in place from the
//!   [`ParamStore`] (never cloned), and buffers are recycled across
//!   sessions, so a warmed executor allocates nothing on steady-state
//!   prediction calls.
//!
//! Both backends draw on [`crate::kernels`], whose every matmul variant
//! (plain lanes on the tape; packed, register-tiled and run-time
//! dispatched when serving) performs the same per-element operation
//! sequence, and they share the row kernels and activation scalars
//! outright, so their forward values are bit-identical —
//! `tests/exec_parity.rs` compares them on `f32` bits over random
//! programs of the 13 ops.
//!
//! The serving executor also packs static weight matrices into
//! SIMD-friendly column panels once and caches them per [`ParamId`]
//! (validated against the store's `(uid, version)`, so online weight
//! updates repack automatically), and can run its packed matmuls
//! row-parallel — and attention parallel over (sequence, head) — on
//! [`crate::pool::KernelPool`] when `kernel_threads > 1`, with results
//! provably independent of the thread count.

use crate::kernels::{self, Act, PackedB};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::tape::{NodeId, Tape};
use std::collections::HashMap;

/// The forward op set shared by the training ([`Tape`]) and serving
/// ([`InferExec`]) backends: exactly what the modules and model bodies
/// emit. No method has a default body — a backend states all 13.
///
/// Handles returned by one backend instance are only meaningful with
/// that instance. Methods taking a [`ParamStore`] must receive the same
/// store for every call within a session.
pub trait Forward {
    /// The forward value of a node.
    fn value(&self, id: NodeId) -> &Matrix;

    /// Embedding lookup: gathers `indices` rows of the parameter matrix.
    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId;

    /// Elementwise sum of two same-shape nodes.
    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Horizontal concatenation (feature axis).
    fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId;

    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: NodeId) -> NodeId;

    /// A constant leaf holding a copy of `value`.
    fn leaf_copy(&mut self, value: &Matrix) -> NodeId;

    /// A constant leaf holding the given rows stacked into a matrix.
    ///
    /// # Panics
    /// Panics when `rows` is empty or ragged.
    fn leaf_rows(&mut self, rows: &[&[f32]]) -> NodeId;

    /// Gathers `indices` rows of a node into a `[indices.len(), cols]`
    /// node.
    ///
    /// # Panics
    /// Panics when `indices` is empty or out of range.
    fn gather_rows(&mut self, x: NodeId, indices: &[usize]) -> NodeId;

    /// Vertical concatenation of row *ranges* `(node, start, len)` — the
    /// key/value assembly primitive of cross-attention, where each
    /// sequence's KV stack interleaves rows of different nodes.
    ///
    /// # Panics
    /// Panics when `parts` is empty or a range is out of bounds.
    fn vcat_rows(&mut self, parts: &[(NodeId, usize, usize)]) -> NodeId;

    /// Affine map `x @ W + b` with `W`, `b` trainable parameters.
    fn linear(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId;

    /// `act(x @ W + b)` — the full dense-layer forward in one call.
    fn linear_act(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId, act: Act) -> NodeId;

    /// `layer_norm(x) * gain + bias` — the full LayerNorm module forward.
    fn layer_norm_affine(
        &mut self,
        store: &ParamStore,
        x: NodeId,
        gain: ParamId,
        bias: ParamId,
        eps: f32,
    ) -> NodeId;

    /// Block-diagonal multi-head attention over row-stacked sequences:
    /// `q` is the projected query stack `[Σ q_lens, dim]`, `k`/`v` the
    /// projected key/value stacks `[Σ kv_lens, dim]`, and sequence `b`'s
    /// queries attend only to sequence `b`'s keys/values. Returns the
    /// head-merged context `[Σ q_lens, dim]` (pre-output-projection).
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
    ) -> NodeId;
}

/// Rows `[start, start+len)` of `x` — `x` itself, with nothing recorded,
/// when the range is the whole node, so a one-sequence batch records no
/// slice at all.
fn rows_or_whole(tape: &mut Tape, x: NodeId, start: usize, len: usize) -> NodeId {
    if start == 0 && len == tape.value(x).rows() {
        x
    } else {
        tape.slice_rows(x, start, len)
    }
}

/// Folds [`Tape::vcat`] over `parts`, left to right.
fn vcat_fold(tape: &mut Tape, parts: &[NodeId]) -> NodeId {
    let (&first, rest) = parts.split_first().expect("cannot vcat zero parts");
    rest.iter().fold(first, |acc, &p| tape.vcat(acc, p))
}

/// The definition of the seam: every op as a differentiable composition
/// of the tape's recording primitives. Training runs these; the fused
/// kernels of [`ExecSession`] are tested against them.
impl Forward for Tape {
    fn value(&self, id: NodeId) -> &Matrix {
        Tape::value(self, id)
    }

    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId {
        Tape::gather_param_rows(self, store, pid, indices)
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::add(self, a, b)
    }

    fn hcat(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Tape::hcat(self, a, b)
    }

    fn sigmoid(&mut self, x: NodeId) -> NodeId {
        Tape::sigmoid(self, x)
    }

    fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        self.leaf(value.clone())
    }

    fn leaf_rows(&mut self, rows: &[&[f32]]) -> NodeId {
        self.leaf(Matrix::from_rows(rows))
    }

    /// A slice/vcat chain, one row at a time.
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

    /// Slices each range out (none for a whole node), then folds `vcat`.
    fn vcat_rows(&mut self, parts: &[(NodeId, usize, usize)]) -> NodeId {
        assert!(!parts.is_empty(), "cannot vcat zero ranges");
        let sliced: Vec<NodeId> = parts.iter().map(|&(p, start, len)| rows_or_whole(self, p, start, len)).collect();
        vcat_fold(self, &sliced)
    }

    fn linear(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        let wn = self.param(store, w);
        let bn = self.param(store, b);
        let y = self.matmul(x, wn);
        self.add_row(y, bn)
    }

    fn linear_act(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId, act: Act) -> NodeId {
        let y = Forward::linear(self, store, x, w, b);
        match act {
            Act::Ident => y,
            Act::Relu => self.relu(y),
            Act::Gelu => self.gelu(y),
            Act::Sigmoid => Tape::sigmoid(self, y),
            Act::Tanh => self.tanh(y),
        }
    }

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

    /// Per head: column slices of the stacks, per-sequence row slices
    /// (none when one sequence is the whole stack), `q @ kᵀ` through an
    /// explicit transpose, `scale` then `softmax_rows`, `@ v`, then
    /// `vcat` over sequences and `hcat` over heads.
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
        let dim = Tape::value(self, q).cols();
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
                let kt = self.transpose(kb);
                let scores = self.matmul(qb, kt);
                let scaled = self.scale(scores, scale);
                let attn = self.softmax_rows(scaled);
                blocks.push(self.matmul(attn, vb));
                qo += ql;
                ko += kl;
            }
            let out = vcat_fold(self, &blocks);
            merged = Some(match merged {
                Some(prev) => Tape::hcat(self, prev, out),
                None => out,
            });
        }
        merged.expect("at least one head")
    }
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
/// matrices are additionally packed into SIMD column panels once per
/// worker and cached across sessions (serving weights are static); the
/// cache is validated against the parameter store's `(uid, version)`, so
/// swapping stores or updating weights online repacks lazily instead of
/// serving stale panels.
#[derive(Default)]
pub struct InferExec {
    /// The arena. Every op of a session writes one buffer, in order, so
    /// node `i` of the session *is* `bufs[i]`.
    bufs: Vec<Matrix>,
    /// Nodes computed so far in the current session.
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

    /// An empty executor whose kernels may use up to `threads` threads.
    pub fn with_kernel_threads(threads: usize) -> InferExec {
        let mut exec = InferExec::default();
        exec.set_kernel_threads(threads);
        exec
    }

    /// Sets the kernel thread budget (clamped to at least 1). Results are
    /// bit-identical for every setting; this only trades latency.
    pub fn set_kernel_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The effective kernel thread budget.
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
        ExecSession { exec: self, store }
    }

    /// Number of arena buffers currently owned (a stable count across
    /// repeated same-shape sessions demonstrates buffer reuse).
    pub fn buffer_count(&self) -> usize {
        self.bufs.len()
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
        assert!(id.index() < self.exec.live, "node from another session");
        &self.exec.bufs[id.index()]
    }

    /// Takes the next arena buffer as `[rows, cols]`, lets `f` fill it
    /// (its contents are unspecified on entry — `f` must overwrite every
    /// element), and returns its node. The buffer is moved out of the
    /// arena meanwhile so `f` can read other nodes through `&self`.
    fn compute(&mut self, rows: usize, cols: usize, f: impl FnOnce(&Self, &mut Matrix)) -> NodeId {
        let idx = self.exec.live;
        if idx == self.exec.bufs.len() {
            self.exec.bufs.push(Matrix::default());
        }
        let mut out = std::mem::take(&mut self.exec.bufs[idx]);
        out.reset_shape(rows, cols);
        f(self, &mut out);
        debug_assert!(out.all_finite(), "non-finite forward value");
        self.exec.bufs[idx] = out;
        self.exec.live += 1;
        NodeId::from_index(idx)
    }

    /// Ops read parameters from the session's store; `store` is what the
    /// caller handed the op and must be the same one.
    fn check_store(&self, store: &ParamStore) {
        debug_assert!(std::ptr::eq(store, self.store), "ops must use the session's store");
    }
}

impl Forward for ExecSession<'_> {
    fn value(&self, id: NodeId) -> &Matrix {
        self.get(id)
    }

    fn gather_param_rows(&mut self, store: &ParamStore, pid: ParamId, indices: &[usize]) -> NodeId {
        self.check_store(store);
        let cols = self.store.value(pid).cols();
        self.compute(indices.len(), cols, |s, out| {
            let table = s.store.value(pid);
            for (r, &i) in indices.iter().enumerate() {
                out.row_slice_mut(r).copy_from_slice(table.row_slice(i));
            }
        })
    }

    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (rows, cols) = self.get(a).shape();
        assert_eq!(self.get(b).shape(), (rows, cols), "elementwise shape mismatch");
        self.compute(rows, cols, |s, out| {
            let av = s.get(a).as_slice();
            let bv = s.get(b).as_slice();
            for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(av).zip(bv) {
                *o = x + y;
            }
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

    fn sigmoid(&mut self, x: NodeId) -> NodeId {
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            out.copy_from(s.get(x));
            Act::Sigmoid.apply_slice(out.as_mut_slice());
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

    fn linear(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId) -> NodeId {
        self.linear_act(store, x, w, b, Act::Ident)
    }

    /// One packed GEMM with the bias and activation in its epilogue.
    fn linear_act(&mut self, store: &ParamStore, x: NodeId, w: ParamId, b: ParamId, act: Act) -> NodeId {
        self.check_store(store);
        let rows = self.get(x).rows();
        let cols = self.store.value(w).cols();
        let threads = self.exec.kernel_threads();
        self.exec.ensure_packed(self.store, w);
        self.compute(rows, cols, |s, out| {
            let pb = &s.exec.packed[&w].panels;
            kernels::matmul_packed_into(s.get(x), pb, Some(s.store.value(b)), act, threads, out)
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
        self.check_store(store);
        let (rows, cols) = self.get(x).shape();
        self.compute(rows, cols, |s, out| {
            kernels::layer_norm_affine_into(s.get(x), s.store.value(gain), s.store.value(bias), eps, out)
        })
    }

    /// [`kernels::attn_blocks_into`]: reads the stacks in place and
    /// writes the merged context directly — no slicing or concatenation.
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
            kernels::attn_blocks_into(s.get(q), s.get(k), s.get(v), q_lens, kv_lens, heads, scale, threads, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(seed: u64) -> ParamStore {
        ParamStore::new(seed)
    }

    fn wavy(rows: usize, cols: usize, step: f32) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| (i as f32 * step).sin()).collect())
    }

    #[test]
    fn session_ops_match_tape_ops() {
        let mut store = store_with(7);
        let w = store.normal("w", 4, 3, 0.5);
        let b = store.normal("b", 1, 3, 0.5);
        let x = Matrix::from_vec(2, 4, vec![0.3, -1.2, 0.8, 0.1, 2.0, -0.5, 0.0, 1.5]);

        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &x);
        let yt = Forward::linear(&mut tape, &store, xt, w, b);
        let st = Forward::sigmoid(&mut tape, yt);
        let taped = Forward::value(&tape, st).clone();

        let mut exec = InferExec::new();
        let mut s = exec.session(&store);
        let xs = s.leaf_copy(&x);
        let ys = s.linear(&store, xs, w, b);
        let ss = s.sigmoid(ys);
        assert_eq!(s.value(ss), &taped, "backends must agree exactly");
    }

    #[test]
    fn arena_buffers_are_reused_across_sessions() {
        let mut store = store_with(1);
        let w = store.normal("w", 8, 8, 0.3);
        let b = store.constant("b", 1, 8, 0.1);
        let x = Matrix::full(8, 8, 0.25);
        let mut exec = InferExec::new();
        let count_after = |exec: &mut InferExec| {
            let mut s = exec.session(&store);
            let a = s.leaf_copy(&x);
            let c = s.linear_act(&store, a, w, b, Act::Gelu);
            let d = s.add(a, c);
            let e = s.layer_norm_affine(&store, d, b, b, 1e-5);
            let _ = s.attn_blocks(e, e, e, &[8], &[8], 2, 0.5);
            exec.buffer_count()
        };
        let first = count_after(&mut exec);
        assert_eq!(first, 5, "one arena buffer per op");
        for _ in 0..5 {
            assert_eq!(count_after(&mut exec), first, "steady-state sessions must not grow the arena");
        }
    }

    #[test]
    #[should_panic(expected = "node from another session")]
    fn a_node_past_the_session_is_rejected() {
        let store = store_with(1);
        let x = Matrix::full(2, 2, 0.25);
        let mut exec = InferExec::new();
        let stale = {
            let mut s = exec.session(&store);
            let a = s.leaf_copy(&x);
            s.add(a, a)
        };
        // The arena still owns the buffer; the new session has no node 1.
        let s = exec.session(&store);
        let _ = s.value(stale);
    }

    #[test]
    fn fused_kernels_match_the_tape_compositions_exactly() {
        let mut store = store_with(21);
        let w = store.normal("w", 6, 5, 0.4);
        let b = store.normal("b", 1, 5, 0.2);
        let g = store.constant("g", 1, 6, 1.1);
        let bb = store.constant("gb", 1, 6, -0.3);
        let x = wavy(3, 6, 0.31);
        let y = wavy(7, 6, 0.17);
        let (q_lens, kv_lens) = ([1usize, 2], [3usize, 4]);

        // The tape runs the compositions that define the ops.
        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &x);
        let yt = Forward::leaf_copy(&mut tape, &y);
        let lin = Forward::linear_act(&mut tape, &store, xt, w, b, Act::Gelu);
        let ln = Forward::layer_norm_affine(&mut tape, &store, xt, g, bb, 1e-5);
        let at = Forward::attn_blocks(&mut tape, xt, yt, yt, &q_lens, &kv_lens, 3, 0.125);
        let want_lin = Forward::value(&tape, lin).clone();
        let want_ln = Forward::value(&tape, ln).clone();
        let want_at = Forward::value(&tape, at).clone();

        // The session runs the fused kernels, at several thread counts.
        for threads in [1, 2, 4] {
            let mut exec = InferExec::with_kernel_threads(threads);
            let mut s = exec.session(&store);
            let xs = s.leaf_copy(&x);
            let ys = s.leaf_copy(&y);
            let lin_s = s.linear_act(&store, xs, w, b, Act::Gelu);
            let ln_s = s.layer_norm_affine(&store, xs, g, bb, 1e-5);
            let at_s = s.attn_blocks(xs, ys, ys, &q_lens, &kv_lens, 3, 0.125);
            assert_eq!(s.value(lin_s), &want_lin, "linear_act threads={threads}");
            assert_eq!(s.value(ln_s), &want_ln, "layer_norm_affine threads={threads}");
            assert_eq!(s.value(at_s), &want_at, "attn_blocks threads={threads}");
        }
    }

    #[test]
    fn packed_weights_are_cached_and_invalidate_on_mutation() {
        let mut store = store_with(5);
        let w = store.normal("w", 8, 8, 0.3);
        let b = store.constant("b", 1, 8, 0.0);
        let x = Matrix::full(2, 8, 0.5);
        let mut exec = InferExec::new();

        let run = |exec: &mut InferExec, store: &ParamStore| {
            let mut s = exec.session(store);
            let xs = s.leaf_copy(&x);
            let ys = s.linear(store, xs, w, b);
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
    fn gather_and_leaf_ops_agree_with_the_tape() {
        let store = store_with(4);
        let src = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[9.0, 9.0]];
        let ranges = |x: NodeId, l: NodeId| [(x, 1, 2), (l, 0, 2), (x, 3, 1)];

        let mut tape = Tape::new();
        let xt = Forward::leaf_copy(&mut tape, &src);
        let gt = Forward::gather_rows(&mut tape, xt, &[2, 0, 2]);
        let lt = Forward::leaf_rows(&mut tape, &rows);
        let vt = Forward::vcat_rows(&mut tape, &ranges(xt, lt));
        let expected_g = Forward::value(&tape, gt).clone();
        let expected_l = Forward::value(&tape, lt).clone();
        let expected_v = Forward::value(&tape, vt).clone();

        let mut exec = InferExec::new();
        let mut s = exec.session(&store);
        let xs = s.leaf_copy(&src);
        let gs = s.gather_rows(xs, &[2, 0, 2]);
        assert_eq!(s.value(gs), &expected_g);
        let ls = s.leaf_rows(&rows);
        assert_eq!(s.value(ls), &expected_l);
        let vs = s.vcat_rows(&ranges(xs, ls));
        assert_eq!(s.value(vs), &expected_v);
    }
}
