//! Durable state: the two primitives every on-disk store is a codec over.
//!
//! How bytes become durable, and what happens when they come back damaged,
//! is decided here once; the stores hold a format and a validator and no
//! file I/O. DESIGN.md ("Durable state") has the fault matrix.
//!
//! * [`VersionedDir`] (checkpoints, model artifacts) — files
//!   `<stem>-<n:012>.<ext>`, each published whole (temp → fsync → rename →
//!   directory fsync) and read back newest-first through a decoder.
//! * [`FramedLog`] (verdict journal, latent-cache file) — one file of
//!   [`checksum`](crate::checksum) records: append, whole-file atomic
//!   rewrite, and one scan that tells record from corrupt from torn tail.
//!
//! Stored state fails to load in three ways: *corrupt* (the decoder says
//! [`TasteError::Corrupt`]: quarantined, the next candidate tried),
//! *unreadable* (a read or listing fails: the bytes may be intact, so the
//! error is returned and nothing is touched) and *foreign* (any other
//! refusal: returned untouched as well) — [`VersionedDir::load_newest`].

use crate::checksum::{decode_record, encode_record, DecodeStep};
use crate::{Result, TasteError};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Every file-system call the two primitives make, so the fault suite below
/// can fail or stop each one; [`OsFs`] is the only implementation outside it.
trait Fs: std::fmt::Debug + Send + Sync {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates or truncates `path`, writes `bytes`, fsyncs the file.
    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Appends `bytes` to the existing `path` in one write and flushes.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Names of the entries of `dir`.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

#[derive(Debug)]
struct OsFs;

impl Fs for OsFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> { std::fs::read(path) }
    fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::OpenOptions::new().append(true).open(path)?;
        f.write_all(bytes)?;
        f.flush()?;
        // Best-effort durability: a record the OS has is already torn-tail-safe.
        let _ = f.sync_data();
        Ok(())
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        std::fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> { std::fs::rename(from, to) }
    fn remove(&self, path: &Path) -> io::Result<()> { std::fs::remove_file(path) }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        std::fs::read_dir(dir)?.map(|e| Ok(e?.file_name().to_string_lossy().into_owned())).collect()
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> { std::fs::File::open(dir)?.sync_all() }
}

fn io_err(what: &str, path: &Path, e: io::Error) -> TasteError {
    TasteError::Serde(format!("{what} {}: {e}", path.display()))
}

/// `path` with `suffix` appended to its file name (`a.bin` → `a.bin.tmp`).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    name.into()
}

/// The one atomic publish: `bytes` go to `<path>.tmp` and are fsynced, the
/// temp is renamed over `path` (and removed on every error path), and the
/// directory is fsynced best-effort: readers can already see the version.
fn publish(fs: &dyn Fs, path: &Path, bytes: &[u8]) -> Result<()> {
    let tmp = sibling(path, ".tmp");
    if let Err(e) = fs.create(&tmp, bytes).and_then(|()| fs.rename(&tmp, path)) {
        let _ = fs.remove(&tmp);
        return Err(io_err("write", path, e));
    }
    let _ = path.parent().map(|dir| fs.sync_dir(dir));
    Ok(())
}

/// Replaces the file at `path` with `bytes`: a crash or an error leaves the
/// old contents or the new, never a mixture.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    publish(&OsFs, path, bytes)
}

/// Reads the whole file at `path`.
pub fn read(path: &Path) -> Result<Vec<u8>> {
    OsFs.read(path).map_err(|e| io_err("read", path, e))
}

/// Frames each payload as one [`checksum`](crate::checksum) record, back to back.
pub fn frame_all<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    for payload in payloads {
        out.extend_from_slice(&encode_record(payload));
    }
    out
}

/// What a frame walk found besides the records its visitor took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogScan {
    /// Records skipped: bad checksum, damaged header, or refused by the visitor.
    pub corrupt: u64,
    /// Bytes of torn tail after the last decodable record (0: none).
    pub torn_bytes: usize,
}

/// The one frame walk: offers every checksum-valid payload of `buf` to
/// `visit`, in order; one it refuses (a valid frame is still outside input)
/// or whose checksum fails is skipped and counted. A damaged header's length
/// cannot be trusted, so the walk looks for the next offset where a whole
/// valid record starts: the span before it counts as one corrupt record, and
/// only when there is none is the rest a torn tail.
fn walk<'a>(buf: &'a [u8], mut visit: impl FnMut(&'a [u8]) -> bool) -> LogScan {
    let whole_record_at = |at: &usize| matches!(decode_record(&buf[*at..]), DecodeStep::Record { .. });
    let mut scan = LogScan::default();
    let mut at = 0;
    while at < buf.len() {
        let (intact, consumed) = match decode_record(&buf[at..]) {
            DecodeStep::Record { payload, consumed } => (visit(payload), consumed),
            DecodeStep::CorruptPayload { consumed } => (false, consumed),
            DecodeStep::TornTail => match (at + 1..buf.len()).find(whole_record_at) {
                Some(next) => (false, next - at),
                None => {
                    scan.torn_bytes = buf.len() - at;
                    break;
                }
            },
        };
        scan.corrupt += u64::from(!intact);
        at += consumed;
    }
    scan
}

/// Splits the two-record artifact layout — a manifest record, a payload
/// record, nothing else — or says why `what` is [`TasteError::Corrupt`].
pub fn split_artifact<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a [u8], &'a [u8])> {
    let mut parts = Vec::new();
    let scan = walk(bytes, |payload| {
        parts.push(payload);
        true
    });
    match (scan, &parts[..]) {
        (LogScan { corrupt: 0, torn_bytes: 0 }, &[manifest, payload]) => Ok((manifest, payload)),
        _ => Err(TasteError::corrupt(format!("{what}: not a manifest and a payload record ({} intact, {scan:?})", parts.len()))),
    }
}

/// Checks a manifest's `(format tag, format version)` against what this
/// build reads; a mismatch is [`TasteError::Corrupt`].
pub fn check_format(what: &str, found: (&str, u32), reads: (&str, u32)) -> Result<()> {
    if found == reads {
        return Ok(());
    }
    Err(TasteError::corrupt(format!("not a {what} this build reads: format {found:?}, expected {reads:?}")))
}

/// What [`VersionedDir::load_newest`] found.
#[derive(Debug)]
pub struct Newest<T> {
    /// The newest version the decoder accepted, as `(n, value)`.
    pub loaded: Option<(u64, T)>,
    /// Corrupt files quarantined while searching.
    pub quarantined: u64,
}

/// A directory of whole-file versions `<stem>-<n:012>.<ext>`.
#[derive(Debug, Clone)]
pub struct VersionedDir {
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    stem: &'static str,
    ext: &'static str,
}

impl VersionedDir {
    /// Opens (creating if needed) `dir` and removes the `<stem>-*.<ext>.tmp`
    /// files killed publishes left (a live publisher swept this way fails its
    /// rename, and the previous version stays served).
    pub fn open(dir: &Path, stem: &'static str, ext: &'static str) -> Result<VersionedDir> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", dir, e))?;
        VersionedDir { fs: Arc::new(OsFs), dir: dir.to_owned(), stem, ext }.swept()
    }

    fn swept(self) -> Result<VersionedDir> {
        for (_, stale) in self.numbered(".tmp")? {
            let _ = self.fs.remove(&stale);
        }
        Ok(self)
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path version `n` is stored under.
    pub fn path_for(&self, n: u64) -> PathBuf {
        self.dir.join(format!("{}-{n:012}.{}", self.stem, self.ext))
    }

    /// Files named `<stem>-<n>.<ext><suffix>`, as `(n, path)` sorted by `n`.
    fn numbered(&self, suffix: &str) -> Result<Vec<(u64, PathBuf)>> {
        let tail = format!(".{}{suffix}", self.ext);
        let names = self.fs.list(&self.dir).map_err(|e| io_err("list", &self.dir, e))?;
        let mut found: Vec<(u64, PathBuf)> = names
            .iter()
            .filter_map(|name| {
                let n = name.strip_prefix(self.stem)?.strip_prefix('-')?.strip_suffix(&tail)?.parse().ok()?;
                Some((n, self.dir.join(name)))
            })
            .collect();
        found.sort_unstable_by_key(|(n, _)| *n);
        Ok(found)
    }

    /// Live versions, as `(n, path)` sorted by `n`. An unlistable directory
    /// is an error: "no versions" would restart a live run from nothing.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>> {
        self.numbered("")
    }

    /// Publishes `bytes` as version `n`, atomically; returns its path. On
    /// error no file named `n` was created or changed.
    pub fn publish(&self, n: u64, bytes: &[u8]) -> Result<PathBuf> {
        let path = self.path_for(n);
        publish(&*self.fs, &path, bytes)?;
        Ok(path)
    }

    /// Removes all but the newest `keep` (at least one) versions; one that
    /// cannot be removed is left for the next prune.
    pub fn prune(&self, keep: usize) -> Result<()> {
        let files = self.list()?;
        for (_, old) in &files[..files.len().saturating_sub(keep.max(1))] {
            let _ = self.fs.remove(old);
        }
        Ok(())
    }

    /// The bytes of version `n`.
    pub fn read(&self, n: u64) -> Result<Vec<u8>> {
        let path = self.path_for(n);
        self.fs.read(&path).map_err(|e| io_err("read", &path, e))
    }

    /// Walks versions newest-first to the first one `decode` accepts. One
    /// it calls [`TasteError::Corrupt`] is renamed to `*.<ext>.corrupt` (kept
    /// for inspection, never retried) and the next older is tried; a listing
    /// or read failure, or any other error of `decode`, is returned as is —
    /// nothing renamed, no older version silently loaded in its place.
    pub fn load_newest<T>(&self, mut decode: impl FnMut(u64, &[u8]) -> Result<T>) -> Result<Newest<T>> {
        let mut quarantined = 0;
        for (n, path) in self.list()?.into_iter().rev() {
            match self.read(n).and_then(|bytes| decode(n, &bytes)) {
                Ok(value) => return Ok(Newest { loaded: Some((n, value)), quarantined }),
                Err(TasteError::Corrupt(_)) => {
                    let _ = self.fs.rename(&path, &sibling(&path, ".corrupt"));
                    quarantined += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Newest { loaded: None, quarantined })
    }
}

/// One file of [`checksum`](crate::checksum) records.
#[derive(Debug, Clone)]
pub struct FramedLog {
    fs: Arc<dyn Fs>,
    path: PathBuf,
}

impl FramedLog {
    /// The log at `path`, which need not exist yet.
    pub fn at(path: &Path) -> FramedLog {
        FramedLog { fs: Arc::new(OsFs), path: path.to_owned() }
    }

    /// The existing, appendable log at `path`. Open it only after a repairing
    /// [`scan`](FramedLog::scan), so appends land on a record boundary.
    pub fn open(path: &Path) -> Result<FramedLog> {
        let log = FramedLog::at(path);
        log.fs.append(path, &[]).map_err(|e| io_err("open", path, e))?;
        Ok(log)
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record in a single write and flushes it, so a crash or
    /// an error tears at most this record.
    pub fn append(&self, payload: &[u8]) -> Result<()> {
        self.fs.append(&self.path, &encode_record(payload)).map_err(|e| io_err("append to", &self.path, e))
    }

    /// Replaces the whole log with `payloads` ([`write_atomic`]'s guarantee).
    pub fn rewrite<'a>(&self, payloads: impl IntoIterator<Item = &'a [u8]>) -> Result<()> {
        publish(&*self.fs, &self.path, &frame_all(payloads))
    }

    /// Reads the log and walks it: `visit` takes or refuses (`false`) each
    /// intact record. With `repair`, a torn tail is cut off the file so later
    /// appends are well framed. A read or truncate failure is an error.
    pub fn scan(&self, repair: bool, visit: impl FnMut(&[u8]) -> bool) -> Result<LogScan> {
        let buf = self.fs.read(&self.path).map_err(|e| io_err("read", &self.path, e))?;
        let scan = walk(&buf, visit);
        if repair && scan.torn_bytes > 0 {
            let keep = (buf.len() - scan.torn_bytes) as u64;
            self.fs.truncate(&self.path, keep).map_err(|e| io_err("truncate", &self.path, e))?;
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    //! The fault matrix: every fault at every file-system call of publish /
    //! prune / load-newest and append / rewrite / scan, on an in-memory file
    //! system — plus the truncation-at-every-offset and single-bit-flip
    //! properties, run once over both primitives.
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// What the faulty file system does to the one call it is armed for.
    /// A fault that does not apply to that call (a failed rename armed on a
    /// read) lets it through, so the matrix can arm every fault everywhere.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        /// A write lands a seeded prefix of its bytes, then fails.
        ShortWrite,
        /// A write fails with `ENOSPC` before any byte lands.
        NoSpace,
        /// A write lands whole, then its fsync fails; a directory fsync fails.
        SyncFails,
        RenameFails,
        ReadFails,
        ListFails,
        /// The process dies at this call: a write lands a seeded prefix, any
        /// other call does not happen, and every later call fails until
        /// [`FaultyFs::reboot`]. Armed on a rename this is "stop between
        /// write and rename".
        Crash,
    }

    const FAULTS: [Fault; 7] = [
        Fault::ShortWrite,
        Fault::NoSpace,
        Fault::SyncFails,
        Fault::RenameFails,
        Fault::ReadFails,
        Fault::ListFails,
        Fault::Crash,
    ];
    /// More calls than any single operation below makes.
    const STEPS: usize = 10;

    #[derive(Debug, Default)]
    struct State {
        files: BTreeMap<PathBuf, Vec<u8>>,
        calls: usize,
        armed: Option<(usize, Fault)>,
        dead: bool,
    }

    /// A seeded in-memory [`Fs`], in the style of `taste-db`'s `FaultProfile`:
    /// which call fails is set by [`arm`](FaultyFs::arm), how much of a torn
    /// write lands is a pure function of the seed and the call number.
    #[derive(Debug, Default)]
    struct FaultyFs {
        seed: u64,
        state: Mutex<State>,
    }

    impl FaultyFs {
        fn new(seed: u64) -> Arc<FaultyFs> {
            Arc::new(FaultyFs { seed, state: Mutex::default() })
        }

        /// Arms `fault` for the `k`-th call from now.
        fn arm(&self, k: usize, fault: Fault) {
            let mut st = self.state.lock().unwrap();
            st.armed = Some((st.calls + k, fault));
        }

        /// A new process on the same disk: no fault armed, nothing dead.
        fn reboot(&self) {
            let mut st = self.state.lock().unwrap();
            st.armed = None;
            st.dead = false;
        }

        fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
            self.state.lock().unwrap().files.clone()
        }

        fn put(&self, path: &Path, bytes: &[u8]) {
            self.state.lock().unwrap().files.insert(path.to_owned(), bytes.to_vec());
        }

        fn names_ending(&self, suffix: &str) -> Vec<PathBuf> {
            self.files().into_keys().filter(|p| p.to_string_lossy().ends_with(suffix)).collect()
        }

        /// Counts the call and returns the fault armed for it, if any.
        fn enter(&self, st: &mut State) -> io::Result<Option<Fault>> {
            if st.dead {
                return Err(io::Error::other("the process is dead"));
            }
            let n = st.calls;
            st.calls += 1;
            let fault = st.armed.filter(|(at, _)| *at == n).map(|(_, f)| f);
            st.dead = fault == Some(Fault::Crash);
            Ok(fault)
        }

        /// A non-write call: fails when `fails` is armed for it or the process dies.
        fn call(&self, fails: Fault) -> io::Result<std::sync::MutexGuard<'_, State>> {
            let mut st = self.state.lock().unwrap();
            match self.enter(&mut st)? {
                Some(Fault::Crash) => Err(io::Error::other("crashed")),
                Some(f) if f == fails => Err(io::Error::other(format!("injected {f:?}"))),
                _ => Ok(st),
            }
        }

        /// A write of `bytes` onto `into` (already holding what was there).
        fn write(&self, st: &mut State, fault: Option<Fault>, path: &Path, mut into: Vec<u8>, bytes: &[u8]) -> io::Result<()> {
            let torn = crate::rng::splitmix64(self.seed ^ st.calls as u64) as usize % (bytes.len() + 1);
            let (landed, result) = match fault {
                Some(Fault::ShortWrite) => (torn, Err(io::ErrorKind::WriteZero.into())),
                Some(Fault::Crash) => (torn, Err(io::Error::other("crashed"))),
                Some(Fault::NoSpace) => (0, Err(io::ErrorKind::StorageFull.into())),
                Some(Fault::SyncFails) => (bytes.len(), Err(io::Error::other("injected fsync failure"))),
                _ => (bytes.len(), Ok(())),
            };
            into.extend_from_slice(&bytes[..landed]);
            st.files.insert(path.to_owned(), into);
            result
        }
    }

    impl Fs for FaultyFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            let st = self.call(Fault::ReadFails)?;
            st.files.get(path).cloned().ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn create(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let mut st = self.state.lock().unwrap();
            let fault = self.enter(&mut st)?;
            self.write(&mut st, fault, path, Vec::new(), bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            let mut st = self.state.lock().unwrap();
            let fault = self.enter(&mut st)?;
            let old = st.files.get(path).cloned().ok_or(io::ErrorKind::NotFound)?;
            self.write(&mut st, fault, path, old, bytes)
        }
        fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
            let mut st = self.call(Fault::Crash)?;
            st.files.get_mut(path).ok_or(io::ErrorKind::NotFound)?.truncate(len as usize);
            Ok(())
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let mut st = self.call(Fault::RenameFails)?;
            let bytes = st.files.remove(from).ok_or(io::ErrorKind::NotFound)?;
            st.files.insert(to.to_owned(), bytes);
            Ok(())
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            let mut st = self.call(Fault::Crash)?;
            st.files.remove(path).map(drop).ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            let st = self.call(Fault::ListFails)?;
            let names = st.files.keys().filter(|p| p.parent() == Some(dir));
            Ok(names.map(|p| p.file_name().unwrap().to_string_lossy().into_owned()).collect())
        }
        fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
            self.call(Fault::SyncFails).map(drop)
        }
    }

    const DIR: &str = "/store";

    fn open(fs: &Arc<FaultyFs>) -> VersionedDir {
        VersionedDir { fs: fs.clone(), dir: DIR.into(), stem: "v", ext: "art" }.swept().unwrap()
    }

    fn log_at(fs: &Arc<FaultyFs>, name: &str) -> FramedLog {
        FramedLog { fs: fs.clone(), path: Path::new(DIR).join(name) }
    }

    /// Version `n`'s bytes: the two-record artifact layout, manifest `v<n>`.
    fn artifact(n: u64) -> Vec<u8> {
        let payload: Vec<u8> = (0..40 + n as u8).map(|i| i.wrapping_mul(n as u8 + 3)).collect();
        frame_all([format!("v{n}").as_bytes(), &payload[..]])
    }

    /// The caller-side validator: whole, and the version its name says.
    fn decode(n: u64, bytes: &[u8]) -> Result<u64> {
        split_artifact(bytes, "test artifact")?;
        if bytes != artifact(n) {
            return Err(TasteError::corrupt(format!("version {n} holds other bytes")));
        }
        Ok(n)
    }

    fn records(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record {i} {}", "x".repeat(i * 3)).into_bytes()).collect()
    }

    /// Everything `scan` takes, with the scan itself.
    fn replay(log: &FramedLog, repair: bool) -> Result<(Vec<Vec<u8>>, LogScan)> {
        let mut got = Vec::new();
        let scan = log.scan(repair, |payload| {
            got.push(payload.to_vec());
            true
        })?;
        Ok((got, scan))
    }

    fn each_fault(mut case: impl FnMut(Fault, usize, Arc<FaultyFs>)) {
        for fault in FAULTS {
            for k in 0..STEPS {
                for seed in 0..3 {
                    case(fault, k, FaultyFs::new(seed * 7919 + k as u64));
                }
            }
        }
    }

    #[test]
    fn publish_and_prune_under_every_fault_serve_the_old_version_or_the_new_whole() {
        each_fault(|fault, k, fs| {
            let dir = open(&fs);
            dir.publish(1, &artifact(1)).unwrap();
            fs.arm(k, fault);
            let saved = dir.publish(2, &artifact(2)).and_then(|_| dir.prune(1));
            let ctx = format!("{fault:?} at call {k}: {saved:?}");
            if fault != Fault::Crash {
                assert_eq!(fs.names_ending(".tmp"), Vec::<PathBuf>::new(), "{ctx}: temp removed on every error path");
            }

            fs.reboot();
            let found = open(&fs).load_newest(decode).unwrap();
            assert_eq!(fs.names_ending(".tmp"), Vec::<PathBuf>::new(), "{ctx}: reopening sweeps a killed publish's temp");
            assert_eq!(found.quarantined, 0, "{ctx}: a partial file was live");
            let served = found.loaded.expect("a version is always served").0;
            assert!(served == 2 || (served == 1 && saved.is_err()), "{ctx}: served {served}");
        });
    }

    #[test]
    fn load_newest_under_every_fault_errs_or_loads_the_newest_and_renames_nothing() {
        each_fault(|fault, k, fs| {
            let dir = open(&fs);
            for n in [1, 2] {
                dir.publish(n, &artifact(n)).unwrap();
            }
            let before = fs.files();
            fs.arm(k, fault);
            match dir.load_newest(decode) {
                Ok(found) => assert_eq!((found.loaded, found.quarantined), (Some((2, 2)), 0)),
                Err(e) => assert!(!matches!(e, TasteError::Corrupt(_)), "{fault:?} at call {k}: {e}"),
            }
            assert_eq!(fs.files(), before, "{fault:?} at call {k}: an unreadable store was modified");
        });
    }

    #[test]
    fn only_a_corrupt_verdict_quarantines_and_a_foreign_one_is_returned_untouched() {
        let fs = FaultyFs::new(1);
        let dir = open(&fs);
        for n in [1, 2, 3] {
            dir.publish(n, &artifact(n)).unwrap();
        }
        fs.put(&dir.path_for(3), b"not an artifact");
        let before = fs.files();

        // Unreadable: the damaged newest cannot even be read.
        fs.arm(1, Fault::ReadFails);
        assert!(matches!(dir.load_newest(decode), Err(TasteError::Serde(_))));
        // Foreign: the decoder refuses it with anything but `Corrupt`.
        let foreign = dir.load_newest(|_, _| Err::<u64, _>(TasteError::invalid("another dataset's")));
        assert!(matches!(foreign, Err(TasteError::InvalidArgument(_))));
        assert_eq!(fs.files(), before, "neither verdict renames anything");

        // Corrupt: renamed aside, the next older version served, not retried.
        let found = dir.load_newest(decode).unwrap();
        assert_eq!((found.loaded, found.quarantined), (Some((2, 2)), 1));
        assert_eq!(fs.names_ending(".corrupt"), vec![PathBuf::from("/store/v-000000000003.art.corrupt")]);
        assert_eq!(dir.load_newest(decode).unwrap().quarantined, 0);
    }

    #[test]
    fn listing_is_numeric_and_the_sweep_keeps_to_its_own_stem() {
        let fs = FaultyFs::new(2);
        for name in ["v-000000000007.art", "v-000000000100.art", "v-2.art", "v-000000000009.art.tmp", "w-000000000001.art.tmp", "v-x.art", "notes.txt"] {
            fs.put(&Path::new(DIR).join(name), &artifact(7));
        }
        let dir = open(&fs);
        assert_eq!(dir.list().unwrap().into_iter().map(|(n, _)| n).collect::<Vec<_>>(), vec![2, 7, 100]);
        assert_eq!(fs.names_ending(".tmp"), vec![PathBuf::from("/store/w-000000000001.art.tmp")]);
        dir.prune(0).unwrap();
        assert_eq!(dir.list().unwrap(), vec![(100, PathBuf::from("/store/v-000000000100.art"))], "at least one is kept");
        fs.arm(0, Fault::ListFails);
        assert!(matches!(dir.list(), Err(TasteError::Serde(_))), "an unlistable directory is not an empty one");
    }

    #[test]
    fn append_under_every_fault_tears_at_most_the_last_record() {
        let all = records(5);
        each_fault(|fault, k, fs| {
            let log = log_at(&fs, "journal");
            log.rewrite(all[..3].iter().map(Vec::as_slice)).unwrap();
            fs.arm(k, fault);
            let appended = log.append(&all[3]);
            let ctx = format!("{fault:?} at call {k}: {appended:?}");

            fs.reboot();
            let (got, scan) = replay(&log, true).unwrap();
            assert!(got == all[..3] || got == all[..4], "{ctx}: replayed {} records", got.len());
            assert!(appended.is_err() || (got.len() == 4 && scan.torn_bytes == 0), "{ctx}");
            assert_eq!(scan.corrupt, 0, "{ctx}: tearing is not corruption");
            // The repaired log takes appends on a record boundary again.
            log.append(&all[4]).unwrap();
            let (again, scan) = replay(&log, true).unwrap();
            assert_eq!((again.len(), again.last(), scan), (got.len() + 1, Some(&all[4]), LogScan::default()), "{ctx}");
        });
    }

    #[test]
    fn rewrite_under_every_fault_leaves_the_old_log_or_the_new_whole() {
        let all = records(5);
        each_fault(|fault, k, fs| {
            let (cache, other) = (log_at(&fs, "a.bin"), log_at(&fs, "a.idx"));
            cache.rewrite(all[..2].iter().map(Vec::as_slice)).unwrap();
            other.rewrite([&all[4][..]]).unwrap();
            fs.arm(k, fault);
            let saved = cache.rewrite(all[2..].iter().map(Vec::as_slice));
            if fault == Fault::Crash && saved.is_err() && !fs.names_ending(".tmp").is_empty() {
                assert_eq!(fs.names_ending(".tmp"), vec![PathBuf::from("/store/a.bin.tmp")], "temp = final name + .tmp");
            }

            fs.reboot();
            let (got, scan) = replay(&cache, false).unwrap();
            assert!(got == all[2..] || (got == all[..2] && saved.is_err()), "{fault:?} at call {k}: {saved:?}");
            assert_eq!(scan, LogScan::default());
            assert_eq!(replay(&other, false).unwrap().0, vec![all[4].clone()], "a sibling with the same stem is untouched");
        });
    }

    #[test]
    fn scan_under_every_fault_errs_or_repairs_and_never_loses_an_intact_record() {
        let all = records(3);
        let mut torn = frame_all(all.iter().map(Vec::as_slice));
        torn.extend_from_slice(&encode_record(b"the record the crash tore")[..20]);
        each_fault(|fault, k, fs| {
            let log = log_at(&fs, "journal");
            fs.put(log.path(), &torn);
            fs.arm(k, fault);
            match replay(&log, true) {
                Ok((got, scan)) => assert_eq!((got, scan), (all.clone(), LogScan { corrupt: 0, torn_bytes: 20 })),
                Err(e) => assert!(matches!(e, TasteError::Serde(_)), "{fault:?} at call {k}: {e}"),
            }
            fs.reboot();
            assert_eq!(replay(&log, true).unwrap().0, all, "{fault:?} at call {k}");
            assert_eq!(fs.files()[log.path()].len(), torn.len() - 20, "the second scan finishes the repair");
        });
    }

    /// Truncation at every offset, over both primitives: a log replays the
    /// exact prefix of whole records, a versioned file that lost any suffix
    /// is quarantined in favour of the older version.
    #[test]
    fn truncation_at_every_offset_yields_a_clean_prefix_or_the_previous_version() {
        let all = records(3);
        let full = frame_all(all.iter().map(Vec::as_slice));
        let ends: Vec<usize> = all
            .iter()
            .scan(0, |end, r| {
                *end += encode_record(r).len();
                Some(*end)
            })
            .collect();
        let fs = FaultyFs::new(3);
        let log = log_at(&fs, "journal");
        for cut in 0..=full.len() {
            fs.put(log.path(), &full[..cut]);
            let (got, scan) = replay(&log, false).unwrap();
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(got, all[..whole], "cut={cut}");
            let on_boundary = cut == 0 || ends.contains(&cut);
            assert_eq!((scan.corrupt, scan.torn_bytes > 0), (0, !on_boundary), "cut={cut}: tearing, never corruption");
        }

        let newest = artifact(2);
        for cut in 0..newest.len() {
            let fs = FaultyFs::new(4);
            let dir = open(&fs);
            dir.publish(1, &artifact(1)).unwrap();
            fs.put(&dir.path_for(2), &newest[..cut]);
            let found = dir.load_newest(decode).unwrap();
            assert_eq!((found.loaded, found.quarantined), (Some((1, 1)), 1), "cut={cut}");
        }
    }

    /// Every single-bit flip, over both primitives: a log loses at most the
    /// record the bit lands in and never yields a record that was not
    /// written; a versioned file is quarantined in favour of the older one.
    #[test]
    fn a_single_bit_flip_costs_one_record_or_one_version_and_never_misreads() {
        let all = records(4);
        let full = frame_all(all.iter().map(Vec::as_slice));
        let fs = FaultyFs::new(5);
        let log = log_at(&fs, "journal");
        for bit in 0..full.len() * 8 {
            let mut bytes = full.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs.put(log.path(), &bytes);
            let (got, scan) = replay(&log, false).unwrap();
            assert!(got.len() >= all.len() - 1, "bit {bit}: {} of {} records survived", got.len(), all.len());
            assert!(got.iter().all(|r| all.contains(r)), "bit {bit}: a record nobody wrote");
            assert_eq!(got.len() as u64 + scan.corrupt + u64::from(scan.torn_bytes > 0), all.len() as u64, "bit {bit}");
        }

        let newest = artifact(2);
        for bit in 0..newest.len() * 8 {
            let fs = FaultyFs::new(6);
            let dir = open(&fs);
            dir.publish(1, &artifact(1)).unwrap();
            let mut bytes = newest.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            fs.put(&dir.path_for(2), &bytes);
            let found = dir.load_newest(decode).unwrap();
            assert_eq!((found.loaded, found.quarantined), (Some((1, 1)), 1), "bit {bit}");
        }
    }

    /// The real file system, where the fault suite cannot reach: a write
    /// that fails leaves neither the file nor its temp.
    #[test]
    fn os_write_atomic_round_trips_and_cleans_up_after_an_error() {
        let dir = std::env::temp_dir().join(format!("taste-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(read(&path).unwrap(), b"two");
        // A directory in the way makes the rename fail after the temp was written.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("child")).unwrap();
        assert!(matches!(write_atomic(&blocked, b"x"), Err(TasteError::Serde(_))));
        assert!(!sibling(&blocked, ".tmp").exists(), "temp removed on the error path");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
