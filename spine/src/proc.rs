//! What the benchmark reads about its own process: CPU time and the
//! resident-set high-water mark. Linux only, like the rest of `spine`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) this process has used, in ns.
/// `/proc/self/stat` would give the same sum in 10 ms ticks, too coarse
/// to bracket a millisecond op.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` whose layout
    // (two 64-bit fields) is the x86-64/aarch64 Linux `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `VmHWM` of this process in KiB: the most memory it ever had resident.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// Client threads/connections a multi-client workload uses:
/// `min(nproc, 4)`.
pub fn client_count() -> usize {
    nproc().min(4)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let t0 = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_ns() > t0);
    }

    #[test]
    fn peak_rss_is_reported() {
        assert!(peak_rss_kib() > 0);
    }
}
