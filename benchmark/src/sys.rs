//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the machine description for the header.

use std::process::Command;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second. `/proc/self/stat` counts in `USER_HZ`,
/// which Linux fixes at 100 on every architecture it exposes to userland.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in seconds out of one `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may itself hold spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// CPU seconds this process has used so far, all threads, ended ones
/// included — total work, which is what two cores can honestly measure.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MB.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_peak_rss_mb(&s))
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// The commit being measured; "unknown" outside a git checkout (the
/// driver's checkout is not one).
pub fn commit() -> String {
    first_line_of("git", &["rev-parse", "--short", "HEAD"])
}

/// The CPUs a thread may run on, as `sched_getaffinity(2)` fills it: one
/// bit per CPU, 1 024 of them, which is glibc's own `cpu_set_t`.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Keeps the calling thread, and every thread it starts meanwhile, on one
/// CPU until dropped.
///
/// The serve window hands one request around three threads. Spread over
/// two virtual CPUs every hand-off is a wake-up of a halted vCPU, whose
/// latency is the host's scheduler and not the program: the same window
/// read 1.5 ms or 3.5 ms per round trip from one minute to the next. On
/// one CPU a hand-off is a context switch, the CPU never halts, and the
/// window measures the server. With one request in flight nothing runs
/// in parallel anyway, so no overlap is lost.
pub struct Pinned {
    before: Option<CpuSet>,
}

impl Pinned {
    /// Pins to the highest-numbered CPU the thread is allowed on (CPU 0
    /// takes the interrupts). Where the kernel refuses, nothing is pinned
    /// and the guard does nothing.
    pub fn to_one_cpu() -> Pinned {
        let Some(allowed) = allowed_cpus() else {
            return Pinned { before: None };
        };
        let Some(cpu) = (0..allowed.len() * 64)
            .rev()
            .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        else {
            return Pinned { before: None };
        };
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of the size passed; pid 0 is the
        // calling thread.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
        Pinned {
            before: (set == 0).then_some(allowed),
        }
    }
}

/// The CPUs the calling thread may run on; `None` where the kernel does
/// not say.
fn allowed_cpus() -> Option<CpuSet> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 is the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) };
    (got == 0).then_some(allowed)
}

impl Drop for Pinned {
    fn drop(&mut self) {
        if let Some(before) = self.before {
            // SAFETY: `before` is a live buffer of the size passed.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &before) };
        }
    }
}

/// Ends the process if a workload is still running after `limit`: a hang
/// becomes a failed run with its reason printed, never a stuck process.
/// The thread sleeps on a channel, so it is not runnable beside the
/// measured threads; dropping the guard disarms it.
pub struct Watchdog {
    disarm: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn arm(what: String, limit: Duration) -> Watchdog {
        let (disarm, armed) = channel::<()>();
        let thread = std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(RecvTimeoutError::Timeout) {
                eprintln!("watchdog: {what} still running after {limit:?}; 1 operation timed out");
                std::process::exit(3);
            }
        });
        Watchdog {
            disarm: Some(disarm),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        // Dropping the sender wakes the thread with `Disconnected`.
        self.disarm.take();
        if let Some(t) = self.thread.take() {
            // The thread only sleeps and returns; it cannot panic.
            drop(t.join());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_is_read_past_a_hostile_command_name() {
        // Field 2 holds spaces and a ')' on purpose; utime=250 stime=50.
        let line = "4242 (gar bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 250 50 0 0 \
                    20 0 3 0 100 1000000 500 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_stat_cpu_seconds(line), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_peak_rss_is_in_megabytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_positive_and_monotone() {
        let before = process_cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn pinning_leaves_one_cpu_and_is_undone_when_the_guard_drops() {
        let before = allowed_cpus().expect("Linux tells a thread its CPUs");
        {
            let _pinned = Pinned::to_one_cpu();
            let during = allowed_cpus().unwrap();
            assert_eq!(during.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            // A thread started meanwhile inherits the mask.
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, Some(during));
        }
        assert_eq!(allowed_cpus(), Some(before));
    }

    #[test]
    fn a_disarmed_watchdog_lets_the_process_live() {
        drop(Watchdog::arm("test".into(), Duration::from_secs(3600)));
    }
}
