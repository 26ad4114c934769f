//! Host fingerprint and process memory, stamped into every record so
//! that results from different machines are never compared blindly.

/// Where a record was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Logical cores the OS reports.
    pub logical_cores: usize,
    /// CPU model string (`/proc/cpuinfo`), or `unknown`.
    pub cpu_model: String,
    /// The compiler that built this benchmark.
    pub rustc: &'static str,
    /// Worker threads the benchmark lets `sfq-par` use.
    pub threads: usize,
}

/// Logical cores available to this process.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Fingerprint {
    /// Fingerprint of this host for a run on `threads` threads.
    pub fn detect(threads: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            logical_cores: logical_cores(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            threads,
        }
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
