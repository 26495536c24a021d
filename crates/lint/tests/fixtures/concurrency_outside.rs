// ABR-L008 fixture: threading primitives outside the designated
// concurrency modules. Scanned under `crates/core/src/fixture.rs`
// (fires everywhere) and under `crates/bench/src/runner.rs` (silent —
// the runner is a designated module).
use std::sync::atomic::AtomicU64; // VIOLATION x2 (cols 10, 24)
use std::sync::Barrier; // VIOLATION (col 16)
use std::sync::Mutex; // VIOLATION (col 16)

fn fan_out(n: u64) -> u64 {
    let total = AtomicU64::new(n); // VIOLATION (col 17)
    std::thread::scope(|s| { // VIOLATION (col 10)
        let _ = s;
    });
    let m = Mutex::new(0u64); // VIOLATION (col 13)
    let _ = m;
    total.into_inner()
}

// Arc alone is fine: the shared-corpus data plane hands out read-only
// Arc'd state with no thread spawned at the sharing site.
fn share<T>(x: std::sync::Arc<T>) -> std::sync::Arc<T> {
    x
}

fn hand_rolled_wait(waker: &std::sync::OnceLock<std::thread::Thread>) { // VIOLATION (col 40)
    std::thread::park(); // VIOLATION (col 10)
    waker.get().map(std::thread::Thread::unpark); // VIOLATION (col 42)
}

#[cfg(test)]
mod tests {
    // Test harness code may synchronize however it likes.
    use std::sync::Mutex; // allowed: inside #[cfg(test)]

    static LOCK: Mutex<()> = Mutex::new(());
}
