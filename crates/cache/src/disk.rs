//! The optional on-disk tier: versioned hand-rolled JSON records with
//! corrupt-entry quarantine.
//!
//! One file per entry, `<kind>-<hex key>.json`, containing
//!
//! ```json
//! { "version": 1, "kind": "tub", "key": "…32 hex…", "value": { … } }
//! ```
//!
//! Records are written atomically (temp file + rename). Any record that
//! fails to load — unreadable JSON, wrong version/kind/key, a
//! [`CacheEntry::from_json`] decode error, or (when `DCN_VALIDATE` is on)
//! a failed [`CacheEntry::validate`] certificate check — is *quarantined*:
//! renamed to `<name>.quarantined`, counted under `cache.quarantined`, and
//! treated as a miss. Corruption therefore costs a recompute, never a
//! panic and never a poisoned result.

use crate::hash::{CacheKey, FORMAT_VERSION};
use crate::CacheEntry;
use dcn_obs::json::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// A directory of JSON cache records.
#[derive(Debug)]
pub(crate) struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Opens (creating if needed) the record directory. Returns `None`
    /// when the directory cannot be created — the cache then runs
    /// memory-only rather than failing the run.
    pub(crate) fn open(dir: PathBuf) -> Option<DiskTier> {
        fs::create_dir_all(&dir).ok()?;
        Some(DiskTier { dir })
    }

    fn path_for(&self, kind: &str, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{kind}-{}.json", key.to_hex()))
    }

    /// Loads and revalidates a record; quarantines it and reports a miss
    /// on any failure. An absent file is a plain miss (no quarantine).
    pub(crate) fn load<T: CacheEntry>(&self, key: CacheKey) -> Option<T> {
        let path = self.path_for(T::KIND, key);
        let text = fs::read_to_string(&path).ok()?;
        match decode::<T>(&text, key) {
            Ok(value) => Some(value),
            Err(reason) => {
                quarantine(&path, T::KIND, &reason);
                None
            }
        }
    }

    /// Writes a record atomically. I/O errors are swallowed: the disk
    /// tier is an accelerator, never a correctness dependency.
    ///
    /// The temp name embeds the kind *and the writing pid*: the record
    /// directory is shared by every process pointed at one
    /// `DCN_CACHE_DIR`, and a key-only temp name would
    /// let two processes storing the same key interleave writes into
    /// one temp file — a torn-write window the final `rename` would
    /// then publish. With per-process temp names, concurrent stores of
    /// the same key race only at the rename, which is atomic:
    /// last-writer-wins, and both writers' bytes are complete records.
    pub(crate) fn store<T: CacheEntry>(&self, key: CacheKey, value: &T) {
        let record = Json::obj([
            ("version", Json::Num(FORMAT_VERSION as f64)),
            ("kind", Json::Str(T::KIND.to_string())),
            ("key", Json::Str(key.to_hex())),
            ("value", value.to_json()),
        ]);
        let path = self.path_for(T::KIND, key);
        let tmp = self.dir.join(format!(
            "{}-{}.{}.tmp",
            T::KIND,
            key.to_hex(),
            std::process::id()
        ));
        let published =
            fs::write(&tmp, record.to_string_pretty()).is_ok() && fs::rename(&tmp, &path).is_ok();
        if !published {
            let _ = fs::remove_file(&tmp);
        }
    }
}

fn decode<T: CacheEntry>(text: &str, key: CacheKey) -> Result<T, String> {
    let json = Json::parse(text).map_err(|e| format!("unparseable record: {e}"))?;
    let version = json
        .get("version")
        .and_then(Json::as_u64)
        .ok_or("missing version")?;
    if version != FORMAT_VERSION {
        return Err(format!("version {version}, expected {FORMAT_VERSION}"));
    }
    let kind = json.get("kind").and_then(Json::as_str).ok_or("missing kind")?;
    if kind != T::KIND {
        return Err(format!("kind {kind:?}, expected {:?}", T::KIND));
    }
    let hex = json.get("key").and_then(Json::as_str).ok_or("missing key")?;
    if hex != key.to_hex() {
        return Err("key mismatch (renamed or relocated record)".to_string());
    }
    let value = json.get("value").ok_or("missing value")?;
    let decoded = T::from_json(value)?;
    if dcn_guard::validation_enabled() {
        decoded
            .validate()
            .map_err(|e| format!("certificate check failed: {e}"))?;
    }
    Ok(decoded)
}

fn quarantine(path: &Path, kind: &str, reason: &str) {
    dcn_obs::counter!(dcn_obs::names::CACHE_QUARANTINED).inc();
    dcn_obs::obs_log!("cache: quarantined {kind} record {}: {reason}", path.display());
    let mut target = path.as_os_str().to_os_string();
    target.push(".quarantined");
    if fs::rename(path, &target).is_err() {
        // Renaming failed (e.g. read-only dir): remove instead so the next
        // run does not re-trip on the same corrupt bytes; if even that
        // fails we still just miss.
        let _ = fs::remove_file(path);
    }
}
