//! Process CPU time and peak memory, read from `/proc/self`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes this `USER_HZ` at 100 on every architecture's user ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used so far, across all
/// its threads (including threads that have already exited).
pub fn cpu_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu_ticks(&text).expect("/proc/self/stat has utime and stime") as f64 / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&text).expect("/proc/self/status has VmHWM") as f64 * 1024.0 / 1e6
}

/// `utime + stime` in clock ticks from a `/proc/<pid>/stat` line. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`: state is field 3, utime 14, stime 15.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` value in KiB from a `/proc/<pid>/status` document.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "4242 (odd) name) R 1 4242 4242 0 -1 4194560 120 0 0 0 \
                    731 52 0 0 20 0 3 0 8800 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(783));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no paren"), None);
    }

    #[test]
    fn vm_hwm_in_kib() {
        let status = "Name:\tabr\nVmPeak:\t  20000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(15_360));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("Name:\tabr\n"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
