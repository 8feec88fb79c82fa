//! Host conditions read from `/proc`: CPU time of a process, this process's
//! peak memory, and the VM-wide counters (steal time, context switches, clones)
//! that explain a noisy run. Recorded beside each run, never gated.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`, 100
/// on every mainstream Linux configuration).
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of a process (`None` = this process).
pub fn cpu_seconds(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let text = fs::read_to_string(path).ok()?;
    // Fields after the parenthesised command name: state is field 3, utime
    // field 14 and stime field 15 of the whole line.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// VM-wide counters from `/proc/stat` at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// Aggregate CPU ticks spent in steal time.
    pub steal: u64,
    /// Aggregate CPU ticks of all kinds.
    pub total: u64,
    /// Context switches since boot.
    pub ctxt: u64,
    /// Processes and threads created since boot.
    pub processes: u64,
    /// One-minute load average.
    pub load1: f64,
}

impl HostSample {
    pub fn read() -> Self {
        let mut sample = Self::default();
        if let Ok(text) = fs::read_to_string("/proc/stat") {
            for line in text.lines() {
                let mut fields = line.split_whitespace();
                match fields.next() {
                    Some("cpu") => {
                        let ticks: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
                        // user nice system idle iowait irq softirq steal ...
                        sample.steal = ticks.get(7).copied().unwrap_or(0);
                        sample.total = ticks.iter().take(8).sum();
                    }
                    Some("ctxt") => sample.ctxt = parse_next(fields),
                    Some("processes") => sample.processes = parse_next(fields),
                    _ => {}
                }
            }
        }
        if let Ok(text) = fs::read_to_string("/proc/loadavg") {
            sample.load1 = text
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok())
                .unwrap_or(0.0);
        }
        sample
    }

    /// Counter deltas from `self` to `later`.
    pub fn until(&self, later: &HostSample) -> HostDelta {
        let total = later.total.saturating_sub(self.total);
        HostDelta {
            steal_share: if total == 0 {
                0.0
            } else {
                later.steal.saturating_sub(self.steal) as f64 / total as f64
            },
            ctxt: later.ctxt.saturating_sub(self.ctxt),
            clones: later.processes.saturating_sub(self.processes),
            load1_start: self.load1,
            load1_end: later.load1,
        }
    }
}

fn parse_next<'a>(mut fields: impl Iterator<Item = &'a str>) -> u64 {
    fields.next().and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// What happened on the host between two [`HostSample`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostDelta {
    /// Share of all CPU ticks that were stolen by the hypervisor.
    pub steal_share: f64,
    /// Context switches, VM-wide.
    pub ctxt: u64,
    /// Processes and threads created, VM-wide.
    pub clones: u64,
    pub load1_start: f64,
    pub load1_end: f64,
}

impl HostDelta {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"steal_share\":{},\"ctxt\":{},\"clones\":{},\"load1_start\":{},\"load1_end\":{}}}",
            self.steal_share, self.ctxt, self.clones, self.load1_start, self.load1_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_cpu_time_and_a_peak_rss() {
        assert!(cpu_seconds(None).is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn host_counters_only_grow() {
        let before = HostSample::read();
        std::thread::spawn(|| ()).join().expect("empty thread");
        let delta = before.until(&HostSample::read());
        assert!(delta.clones >= 1);
        assert!((0.0..=1.0).contains(&delta.steal_share));
    }
}
