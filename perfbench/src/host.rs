//! Host facts read from `/proc`: page faults, peak memory, steal time,
//! load and kernel. Each is recorded with a run so a run taken in a slow
//! host phase can be told apart from a slow program.

use std::fs;

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// Minor page faults of this process so far (field 10 of
/// `/proc/self/stat`, all threads).
pub fn minor_faults() -> u64 {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it start
    // at field 3, so minflt (field 10) is the eighth after the `)`.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Steal ticks of all CPUs so far (the eighth value of the `cpu` line
/// of `/proc/stat`): time the hypervisor ran someone else.
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The 1-, 5- and 15-minute load averages.
pub fn load_average() -> String {
    read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Kernel release.
pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_string()
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
