//! Versioned on-disk model artifacts for hot reload.
//!
//! A [`ModelRegistry`] is a directory of serving candidates: each file
//! holds one full [`Adtd`] model stamped with a monotonically increasing
//! *model version*. The rollout controller in `taste-framework` polls
//! the registry for a version newer than the incumbent, canaries it, and
//! promotes or rolls back — so the integrity bar here is absolute: a
//! truncated, bit-flipped, or non-finite artifact must decode to
//! [`TasteError::Corrupt`], get quarantined on disk, and never reach a
//! serving thread.
//!
//! # On-disk format
//!
//! Two [`taste_core::checksum`] CRC32C-framed records, back to back:
//!
//! 1. a JSON *manifest* — format tag, format version, model version;
//! 2. the [`Adtd::to_json`] payload — config, ntypes, parameters, and
//!    tokenizer vocabulary.
//!
//! Decoding reuses [`Adtd::from_json`], which routes parameter values
//! through `ParamStore::from_json` — shape mismatches, missing
//! parameters, and non-finite values are all rejected there, so a
//! poisoned artifact fails closed long before anyone serves it. All file
//! I/O is [`taste_core::durable::VersionedDir`]'s.

use crate::adtd::Adtd;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taste_core::durable::{self, Newest, VersionedDir};
use taste_core::TasteError;

/// Bumped whenever the artifact layout changes incompatibly.
pub const REGISTRY_FORMAT_VERSION: u32 = 1;

const FORMAT_TAG: &str = "taste-model-artifact";
/// Extension of live artifact files (`model-<version>.model`).
pub const FILE_EXT: &str = "model";

#[derive(Serialize, Deserialize)]
struct ArtifactManifest {
    format: String,
    format_version: u32,
    model_version: u64,
}

/// A model pinned to the registry version it was published under.
///
/// The `Arc` is the unit of epoch-style serving: a table that starts on
/// one version finishes on it even if the incumbent changes mid-run.
#[derive(Clone)]
pub struct VersionedModel {
    /// The registry version this model was published as.
    pub version: u64,
    /// The model itself, shared across serving threads.
    pub model: Arc<Adtd>,
}

impl std::fmt::Debug for VersionedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedModel").field("version", &self.version).finish_non_exhaustive()
    }
}

/// Serializes a model into the framed artifact bytes for `version`.
pub fn encode_artifact(model: &Adtd, version: u64) -> Vec<u8> {
    let manifest = ArtifactManifest {
        format: FORMAT_TAG.to_owned(),
        format_version: REGISTRY_FORMAT_VERSION,
        model_version: version,
    };
    let manifest_json = serde_json::to_vec(&manifest).expect("manifest is always serializable");
    durable::frame_all([&manifest_json[..], model.to_json().as_bytes()])
}

/// Decodes artifact bytes into a [`VersionedModel`].
///
/// # Errors
/// [`TasteError::Corrupt`] on any torn tail, checksum failure, unknown
/// format tag or version, or model-payload validation failure (shape
/// mismatch, missing parameter, non-finite value). Never panics on
/// malformed input.
pub fn decode_artifact(bytes: &[u8]) -> Result<VersionedModel, TasteError> {
    let (manifest_bytes, payload) = durable::split_artifact(bytes, "model artifact")?;
    let manifest: ArtifactManifest = serde_json::from_slice(manifest_bytes)
        .map_err(|e| TasteError::corrupt(format!("model artifact manifest: {e}")))?;
    durable::check_format("model artifact", (&manifest.format, manifest.format_version), (FORMAT_TAG, REGISTRY_FORMAT_VERSION))?;
    let json = std::str::from_utf8(payload)
        .map_err(|e| TasteError::corrupt(format!("model artifact payload: {e}")))?;
    let model = Adtd::from_json(json)
        .map_err(|e| TasteError::corrupt(format!("model artifact payload: {e}")))?;
    Ok(VersionedModel { version: manifest.model_version, model: Arc::new(model) })
}

/// [`decode_artifact`], plus the check that the file name's version is
/// the one the manifest carries.
fn decode_named(version: u64, bytes: &[u8]) -> Result<VersionedModel, TasteError> {
    let loaded = decode_artifact(bytes)?;
    if loaded.version != version {
        return Err(TasteError::corrupt(format!("artifact named version {version} claims version {} inside", loaded.version)));
    }
    Ok(loaded)
}

/// A directory of versioned model artifacts `model-<version>.model`:
/// publishes are atomic, loads return the newest artifact that decodes and
/// quarantine corrupt ones as `*.model.corrupt` on the way.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: VersionedDir,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry directory.
    pub fn new(dir: &Path) -> Result<ModelRegistry, TasteError> {
        Ok(ModelRegistry { dir: VersionedDir::open(dir, "model", FILE_EXT)? })
    }

    /// The directory this registry lives in.
    pub fn dir(&self) -> &Path {
        self.dir.dir()
    }

    /// The file path an artifact at `version` is stored under.
    pub fn path_for(&self, version: u64) -> PathBuf {
        self.dir.path_for(version)
    }

    /// Artifact files present, as `(version, path)` sorted by version; an
    /// unlistable directory is an error, not an empty registry.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, TasteError> {
        self.dir.list()
    }

    /// The highest version with a live (non-quarantined) file, if any.
    pub fn latest_version(&self) -> Result<Option<u64>, TasteError> {
        Ok(self.list()?.last().map(|(v, _)| *v))
    }

    /// Publishes `model` as `version`, atomically and durably.
    ///
    /// # Errors
    /// [`TasteError::InvalidArgument`] when `version` already has a live
    /// file — journals and reports identify weights by that number alone,
    /// so it is never reused; [`TasteError::Serde`] on I/O failure.
    pub fn publish(&self, model: &Adtd, version: u64) -> Result<PathBuf, TasteError> {
        if self.list()?.iter().any(|(v, _)| *v == version) {
            return Err(TasteError::invalid(format!("model version {version} is already published")));
        }
        self.dir.publish(version, &encode_artifact(model, version))
    }

    /// Reads and decodes the artifact at `version`: [`TasteError::Serde`]
    /// on I/O failure, [`TasteError::Corrupt`] when damaged or misnamed.
    pub fn load(&self, version: u64) -> Result<VersionedModel, TasteError> {
        decode_named(version, &self.dir.read(version)?)
    }

    /// Loads the newest artifact that decodes under its own name, as
    /// `(version, model)` ([`VersionedDir::load_newest`]: corrupt files are
    /// quarantined, an unreadable one is an error that renames nothing and
    /// serves no older version in its place).
    pub fn load_latest(&self) -> Result<Newest<VersionedModel>, TasteError> {
        self.dir.load_newest(decode_named)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use std::fs;
    use taste_tokenizer::{Tokenizer, VocabBuilder};

    fn model(seed: u64) -> Adtd {
        let mut b = VocabBuilder::new();
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        b.add_words(["orders", "city", "name", "phone", "int", "text"]);
        Adtd::new(ModelConfig::tiny(), Tokenizer::new(b.build(100, 1)), 4, seed)
    }

    fn temp_registry(tag: &str) -> ModelRegistry {
        let dir = std::env::temp_dir().join(format!("taste-registry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ModelRegistry::new(&dir).unwrap()
    }

    fn params_bits(m: &Adtd) -> Vec<Vec<u32>> {
        m.store
            .ids()
            .map(|id| m.store.value(id).as_slice().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn publish_load_roundtrip_is_bit_exact() {
        let reg = temp_registry("roundtrip");
        let m = model(7);
        reg.publish(&m, 3).unwrap();
        let back = reg.load(3).unwrap();
        assert_eq!(back.version, 3);
        assert_eq!(params_bits(&m), params_bits(&back.model));
        let _ = fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn wrong_tag_and_format_version_are_corrupt() {
        for manifest in [
            &br#"{"format":"not-a-model","format_version":1,"model_version":1}"#[..],
            &br#"{"format":"taste-model-artifact","format_version":99,"model_version":1}"#[..],
        ] {
            let bytes = durable::frame_all([manifest, &b"{}"[..]]);
            assert!(matches!(decode_artifact(&bytes), Err(TasteError::Corrupt(_))));
        }
    }

    /// The artifact bytes of a fixed model, pinned by CRC32C at the commit
    /// before the stores moved onto `taste_core::durable`. Weights come
    /// from an index formula (dyadic rationals in plain-decimal range), so
    /// the pin depends on neither `rand` nor a JSON float formatter.
    #[test]
    fn artifact_bytes_are_pinned() {
        let mut m = model(1);
        for (p, id) in m.store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            for (i, v) in m.store.value_mut(id).as_mut_slice().iter_mut().enumerate() {
                *v = ((i + p) % 17) as f32 / 16.0 - 0.5;
            }
        }
        let bytes = encode_artifact(&m, 3);
        assert_eq!((bytes.len(), taste_core::checksum::crc32c(&bytes)), (59585, 0xdb56_3498));
    }

    #[test]
    fn truncated_artifact_is_corrupt() {
        let bytes = encode_artifact(&model(1), 5);
        for cut in [bytes.len() - 1, bytes.len() / 2, 7] {
            assert!(
                matches!(decode_artifact(&bytes[..cut]), Err(TasteError::Corrupt(_))),
                "cut at {cut} must be corrupt"
            );
        }
    }

    #[test]
    fn non_finite_parameter_is_rejected() {
        let mut m = model(2);
        let id = m.store.ids().next().unwrap();
        m.store.value_mut(id).as_mut_slice()[0] = f32::NAN;
        let bytes = encode_artifact(&m, 4);
        assert!(matches!(decode_artifact(&bytes), Err(TasteError::Corrupt(_))));
    }

    /// The registry's wiring onto `VersionedDir` (whose own behaviour
    /// `taste_core::durable`'s suite covers): file names, numeric listing,
    /// and `decode_named` as the decoder `load_newest` runs — the newest
    /// file here is a whole, valid artifact that only the name-vs-manifest
    /// check can refuse.
    #[test]
    fn registry_names_lists_and_loads_through_decode_named() {
        let reg = temp_registry("wiring");
        assert_eq!(reg.latest_version().unwrap(), None);
        for v in [10, 2] {
            reg.publish(&model(v), v).unwrap();
        }
        assert_eq!(reg.path_for(10), reg.dir().join("model-000000000010.model"));
        assert_eq!(reg.list().unwrap().into_iter().map(|(v, _)| v).collect::<Vec<_>>(), vec![2, 10]);
        fs::write(reg.path_for(20), encode_artifact(&model(3), 21)).unwrap();
        assert_eq!(reg.latest_version().unwrap(), Some(20));

        let found = reg.load_latest().unwrap();
        let (version, loaded) = found.loaded.unwrap();
        assert_eq!((version, loaded.version, found.quarantined), (10, 10, 1));
        assert!(reg.dir().join("model-000000000020.model.corrupt").exists());
        assert_eq!(reg.latest_version().unwrap(), Some(10), "a second load does not retry the quarantined file");
        let _ = fs::remove_dir_all(reg.dir());
    }

    /// Journals and reports identify weights by version number alone, so a
    /// live version is never overwritten.
    #[test]
    fn republishing_a_live_version_is_refused() {
        let reg = temp_registry("republish");
        let first = model(1);
        reg.publish(&first, 4).unwrap();
        assert!(matches!(reg.publish(&model(2), 4), Err(TasteError::InvalidArgument(_))));
        assert_eq!(params_bits(&reg.load(4).unwrap().model), params_bits(&first), "the first publish is still served");
        let _ = fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn misnamed_artifact_is_corrupt() {
        let reg = temp_registry("misname");
        let src = reg.publish(&model(3), 2).unwrap();
        fs::rename(&src, reg.path_for(9)).unwrap();
        assert!(matches!(reg.load(9), Err(TasteError::Corrupt(_))));
        let _ = fs::remove_dir_all(reg.dir());
    }
}
