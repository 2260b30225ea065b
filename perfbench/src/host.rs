//! What the host tells about a process: peak memory, sleeps, CPU time and
//! steal, read from `/proc` and the C library's process clock.

use std::fs;

/// The `/proc` directory of `pid`, or of this process.
fn proc_dir(pid: Option<u32>) -> String {
    pid.map_or_else(|| "/proc/self".to_string(), |p| format!("/proc/{p}"))
}

/// A `Key:  value ...` field of `/proc/<pid>/status`, as its first number.
fn status_field(pid: Option<u32>, key: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("{}/status", proc_dir(pid))).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set (`VmHWM`) of `pid` or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    status_field(pid, "VmHWM").map(|kib| kib as f64 / 1024.0)
}

/// Voluntary context switches of `pid`'s main thread: each one is a sleep
/// (a blocking read or write that found nothing to do).
pub fn voluntary_switches(pid: u32) -> Option<u64> {
    status_field(Some(pid), "voluntary_ctxt_switches")
}

/// Ticks the host's CPUs have had stolen by the hypervisor, summed over
/// CPUs (the `steal` column of `/proc/stat`, in `USER_HZ` = 1/100 s).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let line = t.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Steal seconds between two [`steal_ticks`] readings.
pub fn steal_secs(before: u64, after: u64) -> f64 {
    after.saturating_sub(before) as f64 / 100.0
}

/// Online CPUs.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds this process has used, over all its threads (including
/// threads that have exited).
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mib(None).is_some_and(|m| m > 0.0));
        assert!(voluntary_switches(std::process::id()).is_some());
        let t0 = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_secs() > t0);
        assert_eq!(steal_secs(100, 250), 1.5);
        assert!(nproc() >= 1);
    }
}
