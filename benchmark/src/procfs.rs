//! Process-level resource readings from `/proc/self`.

use std::time::Duration;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/self/stat`. It is 100
/// on every Linux ABI; the standard library has no `sysconf` to ask.
const USER_HZ: u64 = 100;

/// CPU time (user + system) this process has consumed so far, all threads.
/// Resolution is one tick (10 ms), so measure windows of seconds.
pub fn cpu_time() -> Duration {
    stat_cpu("/proc/self/stat")
}

/// CPU time the calling thread alone has consumed so far.
pub fn thread_cpu_time() -> Duration {
    stat_cpu("/proc/thread-self/stat")
}

fn stat_cpu(path: &str) -> Duration {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    Duration::from_millis((utime + stime) * 1000 / USER_HZ)
}

/// One `kB` field of `/proc/self/status`, in KiB (0 when absent).
fn status_kb(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Current resident set size (`VmRSS`), in KiB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

extern "C" {
    /// `sched_setaffinity(2)`; the standard library links libc but has no
    /// wrapper for it.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now on,
/// which inherit the mask — to one CPU. Returns false (and changes nothing)
/// when the kernel refuses, e.g. on a box that lacks that CPU.
pub fn pin_to_cpu(cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, properly aligned 8-byte CPU set and the
    // size passed is its size; pid 0 names the calling thread. The call
    // reads the mask and touches no other memory.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_kb() > 0);
        let before = cpu_time();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time() > before, "60 ms of spinning is several ticks");
        assert!(thread_cpu_time() > Duration::ZERO);
        assert!(thread_cpu_time() <= cpu_time());
    }
}
