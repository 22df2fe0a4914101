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
//! Two [`taste_core::checksum`] CRC32C-framed records, back to back,
//! mirroring `taste_nn::checkpoint`:
//!
//! 1. a JSON *manifest* — format tag, format version, model version;
//! 2. the [`Adtd::to_json`] payload — config, ntypes, parameters, and
//!    tokenizer vocabulary.
//!
//! Decoding reuses [`Adtd::from_json`], which routes parameter values
//! through `ParamStore::from_json` — shape mismatches, missing
//! parameters, and non-finite values are all rejected there, so a
//! poisoned artifact fails closed long before anyone serves it.
//!
//! # Atomicity
//!
//! [`ModelRegistry::publish`] writes a sibling temp file, fsyncs it,
//! renames it over the versioned name, and fsyncs the directory (best
//! effort): a crash mid-publish leaves either no artifact or a whole
//! one, never a torn file under a live name.

use crate::adtd::Adtd;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use taste_core::checksum::{decode_record, encode_record, write_atomic, DecodeStep};
use taste_core::TasteError;

/// Bumped whenever the artifact layout changes incompatibly.
pub const REGISTRY_FORMAT_VERSION: u32 = 1;

const FORMAT_TAG: &str = "taste-model-artifact";
/// Extension of live artifact files (`model-<version>.model`).
pub const FILE_EXT: &str = "model";
const TEMP_EXT: &str = "model.tmp";
/// Extension corrupt artifacts are renamed to when quarantined.
pub const QUARANTINE_EXT: &str = "model.corrupt";

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
    let mut out = encode_record(&manifest_json);
    out.extend_from_slice(&encode_record(model.to_json().as_bytes()));
    out
}

/// Decodes artifact bytes into a [`VersionedModel`].
///
/// # Errors
/// [`TasteError::Corrupt`] on any torn tail, checksum failure, unknown
/// format tag or version, or model-payload validation failure (shape
/// mismatch, missing parameter, non-finite value). Never panics on
/// malformed input.
pub fn decode_artifact(bytes: &[u8]) -> Result<VersionedModel, TasteError> {
    let (manifest_bytes, used) = take_record(bytes, "manifest")?;
    let manifest: ArtifactManifest = serde_json::from_slice(manifest_bytes)
        .map_err(|e| TasteError::corrupt(format!("model artifact manifest: {e}")))?;
    if manifest.format != FORMAT_TAG {
        return Err(TasteError::corrupt(format!(
            "not a model artifact (format tag {:?})",
            manifest.format
        )));
    }
    if manifest.format_version != REGISTRY_FORMAT_VERSION {
        return Err(TasteError::corrupt(format!(
            "unsupported artifact format {} (this build reads {})",
            manifest.format_version, REGISTRY_FORMAT_VERSION
        )));
    }
    let (payload, payload_used) = take_record(&bytes[used..], "payload")?;
    if used + payload_used != bytes.len() {
        return Err(TasteError::corrupt(format!(
            "{} trailing bytes after artifact records",
            bytes.len() - used - payload_used
        )));
    }
    let json = std::str::from_utf8(payload)
        .map_err(|e| TasteError::corrupt(format!("model artifact payload: {e}")))?;
    let model = Adtd::from_json(json)
        .map_err(|e| TasteError::corrupt(format!("model artifact payload: {e}")))?;
    Ok(VersionedModel { version: manifest.model_version, model: Arc::new(model) })
}

fn take_record<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a [u8], usize), TasteError> {
    match decode_record(bytes) {
        DecodeStep::Record { payload, consumed } => Ok((payload, consumed)),
        DecodeStep::CorruptPayload { .. } => {
            Err(TasteError::corrupt(format!("model artifact {what} failed its checksum")))
        }
        DecodeStep::TornTail => Err(TasteError::corrupt(format!("torn model artifact {what} record"))),
    }
}

/// What [`ModelRegistry::load_latest`] found.
pub struct RegistryLoadOutcome {
    /// The newest artifact that decoded cleanly.
    pub loaded: Option<VersionedModel>,
    /// Corrupt files quarantined while searching.
    pub quarantined: u64,
}

/// A directory of versioned model artifacts with corrupt-file
/// quarantine: files are named by version, publishes are atomic, and
/// loads walk newest-first, renaming any file that fails to decode to
/// `*.model.corrupt` and falling back to the next intact version.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// Opens (creating if needed) a registry directory.
    ///
    /// # Errors
    /// [`TasteError::Serde`] when the directory cannot be created.
    pub fn new(dir: &Path) -> Result<ModelRegistry, TasteError> {
        fs::create_dir_all(dir)
            .map_err(|e| TasteError::Serde(format!("model registry dir {}: {e}", dir.display())))?;
        Ok(ModelRegistry { dir: dir.to_owned() })
    }

    /// The directory this registry lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path an artifact at `version` is stored under.
    pub fn path_for(&self, version: u64) -> PathBuf {
        self.dir.join(format!("model-{version:012}.{FILE_EXT}"))
    }

    /// Artifact files present, as `(version, path)` sorted by version.
    pub fn list(&self) -> Vec<(u64, PathBuf)> {
        let Ok(entries) = fs::read_dir(&self.dir) else { return Vec::new() };
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?;
                let version: u64 = name
                    .strip_prefix("model-")?
                    .strip_suffix(&format!(".{FILE_EXT}"))?
                    .parse()
                    .ok()?;
                Some((version, path))
            })
            .collect();
        found.sort_unstable_by_key(|(version, _)| *version);
        found
    }

    /// The highest version with a live (non-quarantined) file, if any.
    pub fn latest_version(&self) -> Option<u64> {
        self.list().last().map(|(v, _)| *v)
    }

    /// Publishes `model` as `version`, durably: temp file, fsync,
    /// rename over the versioned name, best-effort directory fsync.
    ///
    /// # Errors
    /// [`TasteError::Serde`] wrapping the underlying I/O failure.
    pub fn publish(&self, model: &Adtd, version: u64) -> Result<PathBuf, TasteError> {
        let path = self.path_for(version);
        write_atomic(&path, &path.with_extension(TEMP_EXT), &encode_artifact(model, version))
            .map_err(|e| TasteError::Serde(format!("model artifact {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Reads and decodes the artifact at `version`, verifying the file
    /// name agrees with the embedded manifest version.
    ///
    /// # Errors
    /// [`TasteError::Serde`] on I/O failure, [`TasteError::Corrupt`] on
    /// a damaged or misnamed artifact.
    pub fn load(&self, version: u64) -> Result<VersionedModel, TasteError> {
        let path = self.path_for(version);
        let bytes = fs::read(&path)
            .map_err(|e| TasteError::Serde(format!("model artifact {}: {e}", path.display())))?;
        let loaded = decode_artifact(&bytes)?;
        if loaded.version != version {
            return Err(TasteError::corrupt(format!(
                "artifact {} claims version {} inside",
                path.display(),
                loaded.version
            )));
        }
        Ok(loaded)
    }

    /// Loads the newest intact artifact, quarantining corrupt files
    /// encountered on the way (renamed to `*.{QUARANTINE_EXT}` so they
    /// are kept for inspection but never retried).
    ///
    /// # Errors
    /// Never fails on corrupt *contents* — that is the fallback path,
    /// and it surfaces nothing when no intact artifact exists. An
    /// artifact that cannot be *read* may be intact, so its I/O error is
    /// returned: nothing is renamed and no older version is silently
    /// served in its place.
    pub fn load_latest(&self) -> Result<RegistryLoadOutcome, TasteError> {
        let mut quarantined = 0;
        for (version, path) in self.list().into_iter().rev() {
            match self.load(version) {
                Ok(loaded) => return Ok(RegistryLoadOutcome { loaded: Some(loaded), quarantined }),
                Err(TasteError::Corrupt(_)) => {
                    let _ = fs::rename(&path, path.with_extension(QUARANTINE_EXT));
                    quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(RegistryLoadOutcome { loaded: None, quarantined })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
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
        let mut bytes = encode_record(br#"{"format":"not-a-model","format_version":1,"model_version":1}"#);
        bytes.extend_from_slice(&encode_record(b"{}"));
        assert!(matches!(decode_artifact(&bytes), Err(TasteError::Corrupt(_))));

        let mut bytes =
            encode_record(br#"{"format":"taste-model-artifact","format_version":99,"model_version":1}"#);
        bytes.extend_from_slice(&encode_record(b"{}"));
        assert!(matches!(decode_artifact(&bytes), Err(TasteError::Corrupt(_))));
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

    #[test]
    fn corrupt_newest_falls_back_and_quarantines() {
        let reg = temp_registry("quarantine");
        reg.publish(&model(1), 10).unwrap();
        reg.publish(&model(2), 20).unwrap();
        // Flip one bit in the newest artifact.
        let newest = reg.path_for(20);
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&newest, &bytes).unwrap();

        let outcome = reg.load_latest().unwrap();
        let loaded = outcome.loaded.unwrap();
        assert_eq!(loaded.version, 10, "fell back to the previous intact artifact");
        assert_eq!(outcome.quarantined, 1);
        assert!(!newest.exists(), "corrupt file renamed away");
        assert!(newest.with_extension(QUARANTINE_EXT).exists());
        // A second load does not retry the quarantined file.
        let again = reg.load_latest().unwrap();
        assert_eq!(again.quarantined, 0);
        assert_eq!(again.loaded.unwrap().version, 10);
        let _ = fs::remove_dir_all(reg.dir());
    }

    #[test]
    fn unreadable_newest_is_an_error_not_a_quarantine() {
        let reg = temp_registry("eio");
        reg.publish(&model(1), 10).unwrap();
        // A directory under the newest artifact's name: `fs::read` fails
        // with an I/O error that says nothing about the bytes.
        let newest = reg.path_for(20);
        fs::create_dir(&newest).unwrap();

        assert!(matches!(reg.load_latest(), Err(TasteError::Serde(_))));
        assert!(newest.is_dir(), "nothing renamed");
        assert!(!newest.with_extension(QUARANTINE_EXT).exists());
        assert_eq!(reg.load(10).unwrap().version, 10, "older artifact untouched");
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

    #[test]
    fn list_and_latest_version_sort_numerically() {
        let reg = temp_registry("list");
        assert!(reg.latest_version().is_none());
        for v in [7, 2, 100] {
            reg.publish(&model(v), v).unwrap();
        }
        let versions: Vec<u64> = reg.list().into_iter().map(|(v, _)| v).collect();
        assert_eq!(versions, vec![2, 7, 100]);
        assert_eq!(reg.latest_version(), Some(100));
        let _ = fs::remove_dir_all(reg.dir());
    }
}
