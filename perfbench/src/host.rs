//! Host conditions recorded with every run: they are diagnostics that
//! let a run disturbed by a co-tenant be recognized, not metrics.

use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this thread has run on a CPU.
fn thread_cpu_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().next()?.parse().ok()
}

/// Machine-wide steal ticks (the 8th value of the `cpu` line).
fn steal_ticks() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/stat").ok()?;
    s.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into())
}

/// A window of host time whose CPU share and steal can be reported.
pub struct HostWindow {
    wall: Instant,
    cpu_ns: Option<u64>,
    steal: Option<u64>,
}

impl HostWindow {
    pub fn start() -> Self {
        HostWindow {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
            steal: steal_ticks(),
        }
    }

    /// One diagnostic line: CPU vs wall time, steal delta, load, nproc.
    pub fn report(&self) -> String {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => format!("{:.3}", (b - a) as f64 / 1e9),
            _ => "unknown".into(),
        };
        let steal = match (self.steal, steal_ticks()) {
            (Some(a), Some(b)) => (b - a).to_string(),
            _ => "unknown".into(),
        };
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "host: wall_s={wall:.3} cpu_s={cpu} steal_ticks={steal} loadavg=\"{}\" nproc={nproc}",
            loadavg()
        )
    }
}
