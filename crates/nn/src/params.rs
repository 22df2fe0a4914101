//! Named trainable parameters with gradient and Adam state.
//!
//! A [`ParamStore`] owns every trainable matrix of a model, keyed by a
//! dense [`ParamId`] and a human-readable name (used for checkpointing).
//! The ADTD towers *share* transformer parameters by simply using the same
//! `ParamId` from both towers; the tape accumulates both contributions.

use crate::matrix::Matrix;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use taste_core::TasteError;

/// Dense handle to a parameter within its [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Param {
    name: String,
    value: Matrix,
    #[serde(skip)]
    grad: Option<Matrix>,
    #[serde(skip)]
    adam_m: Option<Matrix>,
    #[serde(skip)]
    adam_v: Option<Matrix>,
}

/// Owner of all trainable parameters of a model.
#[derive(Debug, Serialize, Deserialize)]
pub struct ParamStore {
    params: Vec<Param>,
    seed: u64,
    #[serde(skip, default = "default_rng")]
    rng: rand::rngs::StdRng,
    /// Process-unique store identity; regenerated on deserialization so a
    /// checkpoint restored into a new store never aliases a cache entry
    /// built against a different store.
    #[serde(skip, default = "fresh_uid")]
    uid: u64,
    /// Bumped on every mutable access to parameter values. The serving
    /// executor's packed-weight cache validates `(uid, version)` before
    /// reusing packed panels, so online weight updates (feedback loop,
    /// optimizer steps) invalidate stale packs automatically.
    #[serde(skip)]
    version: u64,
}

fn default_rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(0)
}

fn fresh_uid() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ParamStore {
    /// Creates an empty store whose initializers draw from `seed`.
    pub fn new(seed: u64) -> ParamStore {
        ParamStore {
            params: Vec::new(),
            seed,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            uid: fresh_uid(),
            version: 0,
        }
    }

    /// Process-unique identity of this store instance (cache keying).
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Mutation counter over parameter values (cache invalidation). Any
    /// path that can change a value — [`ParamStore::value_mut`], the
    /// optimizer, [`ParamStore::load_matching`] — bumps it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers a parameter initialized from `N(0, std²)`.
    pub fn normal(&mut self, name: &str, rows: usize, cols: usize, std: f32) -> ParamId {
        let mut value = Matrix::zeros(rows, cols);
        for v in value.as_mut_slice() {
            *v = normal_sample(&mut self.rng) * std;
        }
        self.push(name, value)
    }

    /// Registers a parameter with Xavier/Glorot-uniform initialization.
    pub fn xavier(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let mut value = Matrix::zeros(rows, cols);
        for v in value.as_mut_slice() {
            *v = self.rng.gen_range(-bound..bound);
        }
        self.push(name, value)
    }

    /// Registers a constant-initialized parameter (biases, LN gains).
    pub fn constant(&mut self, name: &str, rows: usize, cols: usize, fill: f32) -> ParamId {
        self.push(name, Matrix::full(rows, cols, fill))
    }

    /// Registers a parameter with an explicit initial value.
    pub fn with_value(&mut self, name: &str, value: Matrix) -> ParamId {
        self.push(name, value)
    }

    fn push(&mut self, name: &str, value: Matrix) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(Param {
            name: name.to_owned(),
            value,
            grad: None,
            adam_m: None,
            adam_v: None,
        });
        id
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total scalar count across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable access to the value (used by the optimizer and tests).
    /// Bumps the store version so packed-weight caches refresh.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.version += 1;
        &mut self.params[id.0].value
    }

    /// The parameter's name.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// The accumulated gradient (zeros when untouched).
    pub fn grad(&self, id: ParamId) -> Matrix {
        let p = &self.params[id.0];
        p.grad
            .clone()
            .unwrap_or_else(|| Matrix::zeros(p.value.rows(), p.value.cols()))
    }

    /// Mutable access to the gradient buffer, allocating it on first use.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        let p = &mut self.params[id.0];
        p.grad
            .get_or_insert_with(|| Matrix::zeros(p.value.rows(), p.value.cols()))
    }

    /// Zeroes every gradient buffer (between optimizer steps).
    pub fn zero_grads(&mut self) {
        for p in &mut self.params {
            if let Some(g) = &mut p.grad {
                g.fill_zero();
            }
        }
    }

    /// Global L2 norm of all gradients (for clipping).
    pub fn grad_global_norm(&self) -> f32 {
        self.params
            .iter()
            .filter_map(|p| p.grad.as_ref())
            .map(Matrix::sq_norm)
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient in place (used by gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        for p in &mut self.params {
            if let Some(g) = &mut p.grad {
                for v in g.as_mut_slice() {
                    *v *= factor;
                }
            }
        }
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }

    /// Looks a parameter up by name (checkpoint loading).
    pub fn id_by_name(&self, name: &str) -> Option<ParamId> {
        self.params.iter().position(|p| p.name == name).map(ParamId)
    }

    pub(crate) fn adam_state(&mut self, id: ParamId) -> (&mut Matrix, &mut Matrix, &mut Matrix, &Matrix) {
        self.version += 1;
        let p = &mut self.params[id.0];
        let (rows, cols) = p.value.shape();
        let m = p.adam_m.get_or_insert_with(|| Matrix::zeros(rows, cols));
        let v = p.adam_v.get_or_insert_with(|| Matrix::zeros(rows, cols));
        let grad = p.grad.get_or_insert_with(|| Matrix::zeros(rows, cols));
        (&mut p.value, m, v, grad)
    }

    /// The Adam moment buffers of a parameter, in `(m, v)` order, or
    /// `None` if the optimizer has not touched it yet.
    pub fn adam_moments(&self, id: ParamId) -> Option<(&Matrix, &Matrix)> {
        let p = &self.params[id.0];
        match (&p.adam_m, &p.adam_v) {
            (Some(m), Some(v)) => Some((m, v)),
            _ => None,
        }
    }

    /// Restores a parameter's Adam moment buffers from a checkpoint.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] when either buffer's shape disagrees with
    /// the parameter value.
    pub fn restore_adam_moments(&mut self, id: ParamId, m: Matrix, v: Matrix) -> Result<(), TasteError> {
        let p = &mut self.params[id.0];
        if m.shape() != p.value.shape() || v.shape() != p.value.shape() {
            return Err(TasteError::corrupt(format!(
                "param {:?}: moment shapes {:?}/{:?} disagree with value shape {:?}",
                p.name,
                m.shape(),
                v.shape(),
                p.value.shape()
            )));
        }
        p.adam_m = Some(m);
        p.adam_v = Some(v);
        Ok(())
    }

    /// Clears every parameter's Adam moment buffers. Call when starting
    /// a new training phase over a subset of parameters: stale momentum
    /// from an earlier phase would otherwise keep moving parameters whose
    /// gradients are now zeroed ("frozen").
    pub fn reset_optimizer_state(&mut self) {
        for p in &mut self.params {
            p.adam_m = None;
            p.adam_v = None;
        }
    }

    /// Serializes all parameter values to JSON (a training checkpoint).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("ParamStore is always serializable")
    }

    /// Restores a store from a JSON checkpoint.
    ///
    /// # Errors
    /// [`TasteError::Serde`] when the JSON does not parse at all;
    /// [`TasteError::Corrupt`] when it parses but carries garbage — a
    /// value buffer whose length disagrees with its declared shape, or a
    /// non-finite parameter. Loading either silently would poison every
    /// later forward pass, so both are rejected at this edge.
    pub fn from_json(json: &str) -> Result<ParamStore, TasteError> {
        let store: ParamStore = serde_json::from_str(json)
            .map_err(|e| TasteError::Serde(format!("ParamStore: {e}")))?;
        store.validate()?;
        Ok(store)
    }

    /// Checks every parameter for buffer/shape agreement and finiteness.
    ///
    /// # Errors
    /// [`TasteError::Corrupt`] naming the first offending parameter.
    pub fn validate(&self) -> Result<(), TasteError> {
        for p in &self.params {
            let (rows, cols) = p.value.shape();
            if p.value.len() != rows * cols {
                return Err(TasteError::corrupt(format!(
                    "param {:?}: buffer holds {} values for declared shape {rows}x{cols}",
                    p.name,
                    p.value.len()
                )));
            }
            if !p.value.all_finite() {
                return Err(TasteError::corrupt(format!(
                    "param {:?} contains non-finite values",
                    p.name
                )));
            }
        }
        Ok(())
    }

    /// Copies values (matched by name) from another store; returns the
    /// number of parameters copied. Used to initialize fine-tuning from a
    /// pre-trained checkpoint, as the paper initializes from the TURL
    /// pre-trained encoder.
    pub fn load_matching(&mut self, source: &ParamStore) -> usize {
        self.version += 1;
        let mut copied = 0;
        for sp in &source.params {
            if let Some(id) = self.id_by_name(&sp.name) {
                if self.params[id.0].value.shape() == sp.value.shape() {
                    self.params[id.0].value = sp.value.clone();
                    copied += 1;
                }
            }
        }
        copied
    }
}

/// Box–Muller standard normal sample.
fn normal_sample(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initializers_have_expected_moments() {
        let mut store = ParamStore::new(7);
        let w = store.normal("w", 100, 100, 0.02);
        let vals = store.value(w).as_slice();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!((var.sqrt() - 0.02).abs() < 0.005, "std {}", var.sqrt());

        let x = store.xavier("x", 50, 50);
        let bound = (6.0f32 / 100.0).sqrt();
        assert!(store.value(x).as_slice().iter().all(|v| v.abs() <= bound));

        let c = store.constant("b", 1, 8, 1.0);
        assert!(store.value(c).as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn same_seed_same_init() {
        let mut a = ParamStore::new(3);
        let mut b = ParamStore::new(3);
        let wa = a.normal("w", 4, 4, 1.0);
        let wb = b.normal("w", 4, 4, 1.0);
        assert_eq!(a.value(wa), b.value(wb));
        let mut c = ParamStore::new(4);
        let wc = c.normal("w", 4, 4, 1.0);
        assert_ne!(a.value(wa), c.value(wc));
    }

    #[test]
    fn grad_lifecycle() {
        let mut store = ParamStore::new(0);
        let w = store.constant("w", 2, 2, 0.0);
        assert_eq!(store.grad(w).sq_norm(), 0.0);
        store.grad_mut(w).axpy(1.0, &Matrix::full(2, 2, 3.0));
        assert_eq!(store.grad(w).sq_norm(), 36.0);
        assert_eq!(store.grad_global_norm(), 6.0);
        store.scale_grads(0.5);
        assert_eq!(store.grad_global_norm(), 3.0);
        store.zero_grads();
        assert_eq!(store.grad(w).sq_norm(), 0.0);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_values() {
        let mut store = ParamStore::new(11);
        store.normal("enc.w", 3, 3, 0.1);
        store.constant("enc.b", 1, 3, 0.5);
        let json = store.to_json();
        let back = ParamStore::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        let id = back.id_by_name("enc.b").unwrap();
        assert_eq!(back.value(id).as_slice(), &[0.5, 0.5, 0.5]);
    }

    #[test]
    fn from_json_rejects_shape_buffer_disagreement() {
        // Hand-built checkpoint whose buffer holds one value for a 2x2 shape.
        let json = r#"{"params":[{"name":"w","value":{"rows":2,"cols":2,"data":[1.0]}}],"seed":0}"#;
        match ParamStore::from_json(json) {
            Err(TasteError::Corrupt(msg)) => assert!(msg.contains("2x2"), "msg: {msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn from_json_rejects_non_finite_values() {
        // 1e39 is an ordinary JSON number (a finite f64) that no f32 can
        // hold: any parser accepts it, and narrowing it to the parameter
        // type yields infinity. (What a parser makes of a literal beyond
        // f64, like 1e999, differs between implementations.)
        let json = r#"{"params":[{"name":"w","value":{"rows":1,"cols":1,"data":[1e39]}}],"seed":0}"#;
        match ParamStore::from_json(json) {
            Err(TasteError::Corrupt(msg)) => assert!(msg.contains("non-finite"), "msg: {msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Unparseable input maps to Serde, not Corrupt.
        assert!(matches!(ParamStore::from_json("not json"), Err(TasteError::Serde(_))));
    }

    #[test]
    fn adam_moments_roundtrip_through_accessors() {
        let mut store = ParamStore::new(0);
        let w = store.constant("w", 2, 2, 1.0);
        assert!(store.adam_moments(w).is_none());
        let m = Matrix::full(2, 2, 0.25);
        let v = Matrix::full(2, 2, 0.5);
        store.restore_adam_moments(w, m.clone(), v.clone()).unwrap();
        let (rm, rv) = store.adam_moments(w).unwrap();
        assert_eq!(rm, &m);
        assert_eq!(rv, &v);
        // Mismatched shapes are rejected as corruption.
        let bad = store.restore_adam_moments(w, Matrix::zeros(1, 2), Matrix::zeros(2, 2));
        assert!(matches!(bad, Err(TasteError::Corrupt(_))));
    }

    #[test]
    fn load_matching_copies_by_name_and_shape() {
        let mut pre = ParamStore::new(1);
        pre.constant("shared.w", 2, 2, 9.0);
        pre.constant("pretrain_only", 1, 1, 1.0);

        let mut fine = ParamStore::new(2);
        fine.constant("shared.w", 2, 2, 0.0);
        fine.constant("head.w", 2, 2, 0.0);
        fine.constant("shape_mismatch", 1, 1, 0.0);

        let mut pre2 = ParamStore::new(3);
        pre2.constant("shared.w", 2, 2, 9.0);
        pre2.constant("shape_mismatch", 3, 3, 2.0);

        assert_eq!(fine.load_matching(&pre), 1);
        let id = fine.id_by_name("shared.w").unwrap();
        assert!(fine.value(id).as_slice().iter().all(|&v| v == 9.0));
        // Shape mismatch is skipped, not copied.
        assert_eq!(fine.load_matching(&pre2), 1);
        let sm = fine.id_by_name("shape_mismatch").unwrap();
        assert!(fine.value(sm).as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn uid_and_version_track_identity_and_mutation() {
        let mut a = ParamStore::new(0);
        let b = ParamStore::new(0);
        assert_ne!(a.uid(), b.uid(), "every store instance gets a fresh uid");

        let w = a.constant("w", 2, 2, 1.0);
        let v0 = a.version();
        let _ = a.value(w); // read-only access must not bump
        assert_eq!(a.version(), v0);
        a.value_mut(w).fill_zero();
        assert!(a.version() > v0, "value_mut bumps the version");

        let v1 = a.version();
        let mut src = ParamStore::new(9);
        src.constant("w", 2, 2, 5.0);
        a.load_matching(&src);
        assert!(a.version() > v1, "load_matching bumps the version");

        // A deserialized checkpoint is a *different* store identity.
        let restored = ParamStore::from_json(&a.to_json()).unwrap();
        assert_ne!(restored.uid(), a.uid());
    }

    #[test]
    fn num_scalars_counts_all_elements() {
        let mut store = ParamStore::new(0);
        store.constant("a", 2, 3, 0.0);
        store.constant("b", 4, 1, 0.0);
        assert_eq!(store.num_scalars(), 10);
        assert_eq!(store.len(), 2);
    }
}
