//! `/proc/self` readers: peak resident set and CPU time of this process
//! (one process per workload, so both belong to the workload alone).

/// `VmHWM` of `/proc/self/status` text, in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `utime + stime` of `/proc/self/stat` text, in clock ticks. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// CPU seconds used so far by all threads (Linux reports `USER_HZ` = 100).
pub fn cpu_seconds() -> Option<f64> {
    let ticks = parse_cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?)?;
    Some(ticks as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_cpu_ticks_past_an_awkward_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    37 5 0 0 20 0 3 0 12345 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(42));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readers_work_on_linux() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().is_some());
    }
}
