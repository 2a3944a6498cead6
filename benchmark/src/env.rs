//! The process's surroundings: scratch directories, resident memory, the
//! root-filesystem fsync probe, and the facts stamped into result files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::spec;
use crate::stats;

/// The benchmark package's directory in this checkout.
pub fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// In-checkout scratch space (ignored by git): trace files, the fsync
/// probe, and the data-dir fallback when there is no tmpfs.
pub fn results_tmp() -> PathBuf {
    benchmark_dir().join("results").join("tmp")
}

const SHM_PREFIX: &str = "/dev/shm/mmdb-benchmark-";

/// The scratch root of process `pid` on tmpfs.
pub fn shm_dir(pid: u32) -> PathBuf {
    PathBuf::from(format!("{SHM_PREFIX}{pid}"))
}

/// The data directories of one run. Durable workloads keep their data on
/// tmpfs (`/dev/shm/mmdb-benchmark-<pid>`): on this box `fdatasync` on the
/// root filesystem costs ~150 µs and drifts between runs, against ~20 µs of
/// engine CPU per commit, so an on-disk run would measure the shared disk.
/// Removed on drop — also when a check fails or the run panics.
pub struct DataDirs {
    root: PathBuf,
    pub data_fs: &'static str,
}

impl DataDirs {
    pub fn create() -> DataDirs {
        let pid = std::process::id();
        let shm = shm_dir(pid);
        let _ = std::fs::remove_dir_all(&shm);
        if std::fs::create_dir_all(&shm).is_ok() {
            return DataDirs {
                root: shm,
                data_fs: "tmpfs (/dev/shm)",
            };
        }
        let root = results_tmp().join(format!("data-{pid}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("a scratch directory inside the checkout");
        DataDirs {
            root,
            data_fs: "checkout filesystem (no tmpfs available)",
        }
    }

    /// A fresh, empty directory `name` under the run's root.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for DataDirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Remove whatever a child process `pid` left behind (it was killed, or
/// aborted before its `DataDirs` dropped).
pub fn sweep_child(pid: u32) {
    let _ = std::fs::remove_dir_all(shm_dir(pid));
    let _ = std::fs::remove_dir_all(results_tmp().join(format!("data-{pid}")));
}

/// Resident set size in bytes, from `/proc/self/statm`.
pub fn rss_bytes() -> u64 {
    let pages = std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|p| p.parse::<u64>().ok())
        })
        .unwrap_or(0);
    pages * 4096
}

/// Median `sync_data` latency of small appends on the checkout's own
/// filesystem, in microseconds: what the device would charge per commit
/// batch. Reported for reference; no workload waits on it.
pub fn fsync_probe_us() -> f64 {
    let dir = results_tmp();
    if std::fs::create_dir_all(&dir).is_err() {
        return 0.0;
    }
    let path = dir.join(format!("fsync-probe-{}", std::process::id()));
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    else {
        return 0.0;
    };
    let record = [7u8; 600];
    let mut samples = Vec::with_capacity(spec::FSYNC_PROBE_WRITES);
    for _ in 0..spec::FSYNC_PROBE_WRITES {
        if f.write_all(&record).is_err() {
            break;
        }
        let t = Instant::now();
        if f.sync_data().is_err() {
            break;
        }
        samples.push(t.elapsed().as_nanos() as u64);
    }
    drop(f);
    let _ = std::fs::remove_file(&path);
    stats::median_ns(&samples) / 1e3
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The CPUs the process started with. Read once: after a thread is pinned
/// `available_parallelism` counts only the CPUs that thread may use.
pub fn nproc() -> usize {
    static CPUS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

pub fn git_rev() -> String {
    let dir = benchmark_dir().to_string_lossy().to_string();
    command_line("git", &["-C", &dir, "rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// The CPU a run's threads live on: the generator's and, by inheritance,
/// the in-process servers'. Only `txn_c`'s second writer leaves it.
///
/// Waking a thread on the other CPU of this 2-vCPU box costs ~25 us (the
/// hypervisor has to wake a halted virtual CPU) against ~3 us on the same
/// CPU, and the kernel settles a run's threads in one placement or another
/// and keeps it for minutes: a depth-1 read over TCP took 18 us or 95 us, a
/// new-order transaction over TCP 160 us or 750 us, whole batches of runs
/// in one regime or the other. On one CPU every run measures the same
/// thing, and it is the program's own work rather than the hypervisor's
/// wake-ups (the pipelined phase of `read_wire_p` completes as many reads
/// per second on one CPU as on two).
pub const HOME_CPU: usize = 0;

/// Pin the calling thread to CPU `index` (modulo the CPUs there are) and
/// say whether the kernel agreed. After a refusal (a cpuset without that
/// CPU, a seccomp filter) the thread stays where it was and the run is back
/// in the two-regime behaviour described above, so every caller's answer
/// ends up in the run's `pinned` stamp.
pub fn pin_thread(index: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let cpu = index % nproc().min(64);
    let mask: u64 = 1 << cpu;
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`;
    // `mask` is a live u64 and `cpusetsize` is its size. Pid 0 names the
    // calling thread. A failure (EINVAL, EPERM) changes nothing.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// A fixed piece of work of the kind a database spends its time on —
/// ordered-map lookups by byte-string key, small allocations and copies,
/// byte loops, number formatting — followed by a chain of dependent
/// multiply-adds. How long it takes right now says how fast the box is
/// right now; see `runner::Speed`. It calls nothing outside the standard
/// library, so no change to the engine can move it.
pub struct Reference {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    keys: Vec<Vec<u8>>,
    text: String,
}

impl Reference {
    pub fn new() -> Reference {
        let keys: Vec<Vec<u8>> = (0..spec::REFERENCE_KEYS)
            .map(|i| format!("key-{:06}", i.wrapping_mul(2_654_435_761) % 1_000_000).into_bytes())
            .collect();
        let map = keys
            .iter()
            .map(|k| (k.clone(), k.iter().cycle().take(96).copied().collect()))
            .collect();
        Reference {
            map,
            keys,
            text: String::new(),
        }
    }

    fn pass(&mut self) -> u64 {
        let mut acc = 0u64;
        for i in 0..spec::REFERENCE_MAP_OPS {
            let key = &self.keys[i.wrapping_mul(40_503) % self.keys.len()];
            if let Some(value) = self.map.get(key) {
                let copy = std::hint::black_box(value.clone());
                acc = acc.wrapping_add(copy.iter().map(|&b| u64::from(b)).sum::<u64>());
            }
            self.text.clear();
            let _ = write!(self.text, "{acc}");
            acc ^= self.text.len() as u64;
        }
        for _ in 0..spec::REFERENCE_CHAIN_OPS {
            acc = std::hint::black_box(
                acc.wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407),
            );
        }
        acc
    }

    /// Nanoseconds one pass takes right now. Best of three: an interrupt
    /// only ever adds time, and the first pass refills the caches.
    pub fn run_ns(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(self.pass());
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }
}
