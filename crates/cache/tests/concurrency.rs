//! Cross-process disk-tier race test: several processes hammering the
//! same keys in one `DCN_CACHE_DIR`-style record directory must never
//! tear, quarantine, or corrupt a record.
//!
//! Any two processes pointed at one `DCN_CACHE_DIR` write into the same
//! record directory, so concurrent stores of the same key must race only
//! at the atomic rename (last-writer-wins over *complete* records). Each
//! child process repeatedly deletes records (forcing re-stores) and
//! reloads them, so the directory sees write/write, write/read, and
//! remove/write interleavings; a torn write would surface as a parse
//! failure → quarantine, which both the children and the parent assert
//! never happens.

#![expect(
    clippy::disallowed_methods,
    reason = "the test races child processes, gated by an env var, on one record directory"
)]

use dcn_cache::{CacheEntry, CacheHandle, CacheKey, KeyBuilder};
use dcn_obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

const WORKER_ENV: &str = "DCN_CACHE_TEST_HAMMER_DIR";
const ROUNDS: u64 = 50;
const KEYS: u64 = 6;
const WRITERS: usize = 3;

/// A record bulky enough (~2 KiB) that an interleaved write would be
/// very unlikely to still parse as a complete record.
#[derive(Clone, Debug, PartialEq)]
struct Cell {
    x: f64,
    filler: String,
}

fn cell(i: u64) -> Cell {
    Cell {
        x: i as f64 * 3.5,
        filler: format!("cell-{i}:").repeat(256),
    }
}

impl CacheEntry for Cell {
    const KIND: &'static str = "race-cell";
    fn approx_bytes(&self) -> usize {
        8 + self.filler.len()
    }
    fn to_json(&self) -> Json {
        Json::obj([
            ("x", Json::Num(self.x)),
            ("filler", Json::Str(self.filler.clone())),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, String> {
        let x = json.get("x").and_then(Json::as_f64).ok_or("missing x")?;
        let filler = json
            .get("filler")
            .and_then(Json::as_str)
            .ok_or("missing filler")?
            .to_string();
        Ok(Cell { x, filler })
    }
}

fn key(i: u64) -> CacheKey {
    KeyBuilder::new("race-cell").u64(i).finish()
}

/// Child-process entrypoint (gated on [`WORKER_ENV`]); a no-op in the
/// normal suite.
#[test]
fn hammer_entry() {
    let Ok(dir) = std::env::var(WORKER_ENV) else {
        return;
    };
    let dir = PathBuf::from(dir);
    for round in 0..ROUNDS {
        // A fresh handle per round keeps the memory tier cold, so every
        // lookup goes through the shared disk directory.
        let cache = CacheHandle::with_disk(1 << 20, &dir);
        for i in 0..KEYS {
            if (round + i) % 2 == 0 {
                // Force a re-store: the next lookup misses and races its
                // write against the other processes.
                let _ = std::fs::remove_file(dir.join(format!(
                    "{}-{}.json",
                    Cell::KIND,
                    key(i).to_hex()
                )));
            }
            let v: Result<Cell, ()> = cache.get_or_compute(|| key(i), || Ok(cell(i)));
            assert_eq!(v.unwrap(), cell(i), "round {round} key {i}");
        }
    }
    assert_eq!(
        dcn_obs::counter_value(dcn_obs::names::CACHE_QUARANTINED),
        0,
        "a pure write/write race must never produce a quarantinable record"
    );
}

#[test]
fn concurrent_processes_never_tear_records() {
    let dir = std::env::temp_dir().join(format!("dcn-cache-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create race dir");

    let children: Vec<_> = (0..WRITERS)
        .map(|_| {
            Command::new(std::env::current_exe().expect("current_exe"))
                .args(["hammer_entry", "--exact", "--nocapture"])
                .env(WORKER_ENV, &dir)
                .spawn()
                .expect("spawn hammer child")
        })
        .collect();
    for mut child in children {
        let status = child.wait().expect("wait hammer child");
        assert!(status.success(), "hammer child failed: {status}");
    }

    // Final state: every surviving record loads with the right bytes …
    let cache = CacheHandle::with_disk(1 << 20, &dir);
    for i in 0..KEYS {
        let v: Result<Cell, ()> = cache.get_or_compute(|| key(i), || Ok(cell(i)));
        assert_eq!(v.unwrap(), cell(i), "key {i} after the storm");
    }
    // … and the directory holds exactly one record per key: nothing was
    // quarantined or left behind as a temp file.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("read race dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    let mut want: Vec<String> = (0..KEYS)
        .map(|i| format!("{}-{}.json", Cell::KIND, key(i).to_hex()))
        .collect();
    want.sort();
    assert_eq!(names, want, "unexpected residue in record dir");
    let _ = std::fs::remove_dir_all(&dir);
}
