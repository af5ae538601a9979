//! Process accounting: CPU time, peak RSS (`/proc/self`), CPU affinity, and
//! a fixed CPU kernel that shows when the machine itself was disturbed.

use std::time::Instant;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of `/proc/self/stat`
/// (100 on every Linux ABI this repo builds for).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of the whole process (all threads) from the text of
/// `/proc/self/stat`. The command name may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // After the command: state(3) ... utime(14) stime(15).
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// The C library `std` already links; declared here because the crate has
/// no `libc` dependency to take them from.
mod c {
    /// `struct timespec` on the 64-bit Linux ABIs this repo builds for.
    #[repr(C)]
    pub struct Timespec {
        pub sec: i64,
        pub nsec: i64,
    }
    /// CPU time of the whole thread group, threads that have ended included.
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// `cpu_set_t`: one bit per CPU, 1024 of them.
    pub type CpuSet = [u64; 16];
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// Process CPU seconds (user + system, all threads, those that have ended
/// included) so far, from the scheduler's nanosecond clock. `cpu_ms_per_op`
/// is a median over slices of the timed section as short as 0.3 s, which
/// the 10 ms ticks of `/proc/self/stat` — sampled at that, not counted —
/// would read in steps of 3 %; they are the fallback.
pub fn cpu_seconds() -> f64 {
    let mut ts = c::Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` for the length of the call.
    if unsafe { c::clock_gettime(c::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
        return ts.sec as f64 + ts.nsec as f64 * 1e-9;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_ticks(&stat).unwrap_or(0) as f64 / TICKS_PER_S
}

/// The CPU a mask allows with the highest number (CPU 0 takes most of a
/// guest's interrupts), as a mask of its own.
pub fn last_cpu_only(allowed: &[u64; 16]) -> Option<[u64; 16]> {
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let mut one = [0u64; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    Some(one)
}

/// Keep this thread, and every thread started from it afterwards, on one
/// of the CPUs the process may use. Returns that CPU's number, or `None`
/// where the kernel refuses (the run goes on unpinned and says so).
///
/// The daemon workloads are a closed loop in which one thread runs at a
/// time (client → connection thread → batcher and back). Left to the
/// scheduler, each process draws its own placement of those threads over
/// the two vCPUs, and a hand-over between vCPUs costs an inter-processor
/// interrupt into a halted guest CPU: runs of the same code came out at
/// 7.5 or 9.4 ms per burst. On one CPU every hand-over is a local switch.
pub fn pin_to_one_cpu() -> Option<u32> {
    let mut allowed: c::CpuSet = [0; 16];
    let size = std::mem::size_of::<c::CpuSet>();
    // SAFETY: both masks are live arrays of the size passed; pid 0 is the
    // calling thread.
    unsafe {
        if c::sched_getaffinity(0, size, &mut allowed) != 0 {
            return None;
        }
        let one = last_cpu_only(&allowed)?;
        if c::sched_setaffinity(0, size, &one) != 0 {
            return None;
        }
        let word = one.iter().position(|&w| w != 0)?;
        Some(word as u32 * 64 + one[word].trailing_zeros())
    }
}

/// Peak resident set in MiB since process start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).unwrap_or(0) as f64 / 1024.0
}

/// Reset `VmHWM` to the current resident set so the next reading measures
/// the workload, not the fixture. Returns false where the kernel refuses
/// (the reading then includes set-up, and the run's note line says so).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// A fixed single-threaded xorshift kernel, in milliseconds. The work is
/// constant, so a slow reading means the machine was busy or throttled,
/// not that the code under test changed.
pub fn cpu_probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        let stat = "4242 (a) b (c)) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(1000));
        assert_eq!(parse_stat_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tpml\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kib("Name:\tpml\n"), None);
    }

    #[test]
    fn the_highest_allowed_cpu_is_kept() {
        let mut allowed = [0u64; 16];
        assert_eq!(last_cpu_only(&allowed), None);
        allowed[0] = 0b1011;
        assert_eq!(last_cpu_only(&allowed).map(|m| m[0]), Some(0b1000));
        allowed[2] = 1 << 63 | 1;
        let one = last_cpu_only(&allowed).unwrap();
        assert_eq!((one[0], one[2]), (0, 1 << 63));
    }

    #[test]
    fn cpu_seconds_count_the_work_of_threads_that_ended() {
        let before = cpu_seconds();
        std::thread::spawn(cpu_probe_ms).join().unwrap();
        assert!(cpu_seconds() - before > 0.005);
    }

    #[test]
    fn live_readings_parse_on_this_kernel() {
        assert!(peak_rss_mib() > 0.0);
        cpu_probe_ms();
        assert!(cpu_seconds() >= 0.0);
    }
}
