//! Host-speed calibration. Shared hosts change speed by up to 1.7×
//! within seconds (another tenant on the same physical core), which
//! would swamp any program change. A fixed CPU kernel that belongs to
//! the benchmark, not to the program, is timed on every worker thread
//! right before every step; step times are scaled by
//! `REFERENCE_NS / kernel time`, i.e. reported as they would read on a
//! host where the kernel takes `REFERENCE_NS`.

use std::hint::black_box;
use std::time::Instant;

const N: usize = 32;

/// The kernel's time on the reference host, ns.
pub const REFERENCE_NS: u64 = 250_000;

/// Run the kernel once and return its wall time in ns: dense float
/// arithmetic (a matrix product) and branchy integer work (a sort),
/// the two kinds of work the simulators do.
pub fn kernel_ns() -> u64 {
    let t0 = Instant::now();
    let mut a = vec![0.0f64; N * N];
    let mut b = vec![0.0f64; N * N];
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for v in a.iter_mut().chain(b.iter_mut()) {
        *v = (next() >> 11) as f64 / (1u64 << 53) as f64;
    }
    let mut c = vec![0.0f64; N * N];
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        std::mem::swap(&mut a, black_box(&mut c));
    }
    let mut keys: Vec<u64> = (0..4096).map(|_| next()).collect();
    keys.sort_unstable();
    black_box((&a, &keys));
    t0.elapsed().as_nanos() as u64
}

/// Kernel time on `threads` threads at once (mean over threads, ns):
/// the speed the host gives a step that uses every worker.
pub fn host_ns(threads: usize) -> u64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(kernel_ns)).collect();
        let mine = kernel_ns();
        let total: u64 = others
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .sum::<u64>()
            + mine;
        total / threads as u64
    })
}
