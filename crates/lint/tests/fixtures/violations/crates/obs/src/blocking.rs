//! Fixture: file I/O while holding the obs trace drain-buffer lock.

use std::sync::Mutex;

/// Fixture: owner of the drain buffer, rank 2 in the declared order.
pub struct Buffers {
    drained: Mutex<Vec<u8>>,
}

/// Fixture: documented flush that writes the file under the guard.
pub fn flush(b: &Buffers) -> std::io::Result<()> {
    let guard = b.drained.lock().unwrap_or_else(|e| e.into_inner());
    std::fs::write("trace.json", &*guard)
}
