//! Host and process readings for the provenance block and the
//! scheduler-facing metrics. All come from `/proc` on Linux; elsewhere
//! they read as zero or "unknown".

use std::process::Command;

/// Worker threads the N-thread arm uses: the CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// `git rev-parse HEAD`, or "unknown" outside a git checkout.
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// The 1, 5 and 15 minute load averages.
pub fn loadavg() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut it = text.split_whitespace().map(|f| f.parse().unwrap_or(0.0));
    [(); 3].map(|()| it.next().unwrap_or(0.0))
}

/// Main thread's run-queue wait so far, seconds (`/proc/self/schedstat`).
pub fn runq_wait_s() -> f64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// User plus system CPU time of the whole process so far, including
/// worker threads that have exited, seconds. `/proc/self/stat` counts
/// in clock ticks of 10 ms on Linux.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// CPU time the hypervisor gave other guests while this host's CPUs
/// wanted to run, summed over CPUs, seconds (`steal` in `/proc/stat`).
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Seconds a fixed integer loop takes: the host's current speed, so a
/// run on a slowed host shows it beside the numbers it produced.
pub fn speed_probe_s() -> f64 {
    let t0 = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset the `VmHWM` high-water mark to the current resident set, after
/// handing freed heap pages back to the kernel, so a later
/// [`peak_rss_mb`] reads the peak since this call. Returns whether the
/// kernel took the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap memory.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn proc_readings_are_sane() {
        assert!(super::nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(super::peak_rss_mb() > 0.0);
            assert!(super::runq_wait_s() >= 0.0);
            let burn: u64 = (0..20_000_000u64).map(std::hint::black_box).sum();
            assert!(burn > 0 && super::cpu_s() >= 0.0);
        }
    }

    #[test]
    fn peak_rss_reset_forgets_an_earlier_peak() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let big = std::hint::black_box(vec![1u8; 128 << 20]);
        let high = super::peak_rss_mb();
        drop(big);
        assert!(super::reset_peak_rss());
        let after = super::peak_rss_mb();
        assert!(after < high - 64.0, "peak {after} MiB after reset, {high} MiB before");
    }
}
