//! Host probes: per-thread CPU time at nanosecond resolution, peak RSS
//! and the live thread count, read from the kernel without extra crates.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    // Resolved against the libc that std already links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by the calling thread, in nanoseconds.
///
/// The ns thread clock resolves a 13 ms round; the 10 ms-tick
/// `/proc/thread-self/stat` counters cannot.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant Linux supports for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A field of `/proc/self/status` in its own unit (kB for `Vm*`).
fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Live OS threads in this process (`Threads:`).
#[must_use]
pub fn thread_count() -> u64 {
    status_field("Threads").unwrap_or(0)
}

/// Online CPUs as std sees them (`nproc`).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work() {
        let before = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_ns() > before);
    }

    #[test]
    fn status_fields_parse() {
        assert!(peak_rss_mib() > 0.0);
        assert!(thread_count() >= 1);
    }
}
