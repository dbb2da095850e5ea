//! Process-level plumbing: the scratch directory, heap and RSS accounting
//! and bounded waits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A scratch directory under `.bench_work/` in the working directory (the
/// checkout root), removed again on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates a fresh directory named after the workload and this process.
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let path = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A sub-directory that starts out empty.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The process's global allocator: the system allocator, with every call
/// passed through unchanged, counting the bytes live so the benchmark can
/// report the heap's peak. Unlike RSS, the count does not include memory
/// the allocator keeps after it was freed.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // Read first: the peak line is written only when it moves.
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// the counters are plain atomics and never affect what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Resets the heap's peak mark to the bytes live now, so a later
/// [`peak_heap_mb`] covers only what runs after this call.
pub fn reset_peak_heap() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Peak of the bytes live on the heap since the last
/// [`reset_peak_heap`], in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

/// Cores this process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why a bounded operation produced no value.
#[derive(Debug)]
pub enum Failure {
    /// The operation did not finish within its bound; its thread is left
    /// behind and ends with the process.
    TimedOut(Duration),
    /// The operation panicked.
    Panicked(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::TimedOut(d) => write!(f, "no result within {:.0} s", d.as_secs_f64()),
            Failure::Panicked(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

/// Runs `f` on its own thread and waits at most `timeout` for it, so a
/// hung operation is counted as failed instead of hanging the benchmark.
pub fn bounded<T, F>(timeout: Duration, f: F) -> Result<T, Failure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let _ = tx.send(out);
    });
    match rx.recv_timeout(timeout) {
        Ok(out) => {
            handle
                .join()
                .expect("bounded worker ends after sending its result");
            out.map_err(|p| {
                Failure::Panicked(
                    p.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into()),
                )
            })
        }
        Err(_) => Err(Failure::TimedOut(timeout)),
    }
}

/// The timed window of one run: operations start only while it is open.
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Window {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// True while a new operation may still start.
    pub fn is_open(&self) -> bool {
        self.start.elapsed() < self.length
    }

    /// Wall seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_peak_covers_live_allocations() {
        // Other tests allocate concurrently, so only a lower bound holds.
        reset_peak_heap();
        let v = vec![1u8; 8 << 20];
        assert!(peak_heap_mb() >= 8.0, "a live 8 MiB vector must show");
        drop(v);
    }

    #[test]
    fn bounded_returns_values_panics_and_timeouts() {
        assert_eq!(bounded(Duration::from_secs(5), || 7).unwrap(), 7);
        match bounded(Duration::from_secs(5), || -> u32 { panic!("boom") }) {
            Err(Failure::Panicked(m)) => assert_eq!(m, "boom"),
            other => panic!("expected a panic, got {other:?}"),
        }
        let (tx, rx) = mpsc::channel::<()>();
        let out = bounded(Duration::from_millis(20), move || rx.recv());
        assert!(matches!(out, Err(Failure::TimedOut(_))));
        drop(tx); // lets the abandoned worker finish
    }
}
