//! What the benchmark reads from the host: CPU time of the process and of
//! single threads (`/proc`), and the facts every result file records about
//! where it was measured.

use std::process::Command;

use crate::json::Value;

/// Kernel clock ticks per second in `/proc/*/stat`. `USER_HZ` is fixed at
/// 100 in the Linux userspace ABI regardless of the kernel's own `HZ`.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
fn cpu_seconds_from_stat(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // After the command name come state (field 3), …, utime (14), stime (15).
    let ticks = |field: usize| -> f64 { fields[field - 3].parse().expect("numeric stat field") };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_seconds() -> f64 {
    cpu_seconds_from_stat("/proc/self/stat")
}

/// User + system CPU seconds the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    cpu_seconds_from_stat("/proc/thread-self/stat")
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str], dir: &str) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts every result file carries, so numbers from different
/// PRs and machines are never compared blind.
pub fn host_info() -> Value {
    let dir = env!("CARGO_MANIFEST_DIR");
    Value::obj([
        ("nproc", Value::num(nproc() as f64)),
        (
            "git_revision",
            Value::str(command_line("git", &["rev-parse", "HEAD"], dir)),
        ),
        (
            "rustc",
            Value::str(command_line("rustc", &["--version"], dir)),
        ),
        // Every socket the benchmark opens is on 127.0.0.1: wire latency
        // and link rate are not measured, only the software path.
        (
            "network",
            Value::str("host loopback (127.0.0.1), no real link"),
        ),
        ("compute", Value::str("real (no delay_ms, no stragglers)")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_thread_is_within_process() {
        let (process0, thread0) = (process_cpu_seconds(), thread_cpu_seconds());
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let (process1, thread1) = (process_cpu_seconds(), thread_cpu_seconds());
        assert!(thread1 - thread0 >= 0.03, "thread clock did not advance");
        assert!(process1 - process0 >= thread1 - thread0 - 0.011);
    }
}
