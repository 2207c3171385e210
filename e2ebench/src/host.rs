//! Host facts recorded with every result.

use std::fmt;

/// Worker threads and client connections every workload asks for.
pub const THREADS_REQUESTED: usize = 2;

/// The machine the run measured, and the width it ran at.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The kernel backend training and exact serving dispatch to.
    pub kernel_backend: &'static str,
    /// Threads (and serving connections) the workload asks for.
    pub threads_requested: usize,
    /// What the run uses: the request clamped to the host's parallelism,
    /// so no result is labelled with more threads than cores.
    pub threads_used: usize,
}

impl Host {
    /// Probes the host.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            kernel_backend: advsgm::linalg::backend::active().name(),
            threads_requested: THREADS_REQUESTED,
            threads_used: THREADS_REQUESTED.min(nproc),
        }
    }

    /// Whether the request was cut down to the host's parallelism.
    pub fn clamped(&self) -> bool {
        self.threads_used < self.threads_requested
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} kernel_backend={} threads_requested={} threads_used={}{}",
            self.nproc,
            self.kernel_backend,
            self.threads_requested,
            self.threads_used,
            if self.clamped() {
                " (clamped to host parallelism)"
            } else {
                ""
            }
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc/self/status"))
}
