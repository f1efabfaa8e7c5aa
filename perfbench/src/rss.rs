//! Peak resident set size, read dependency-free from `/proc`.

/// The `VmHWM` (peak RSS) value of a `/proc/<pid>/status` text, in KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = rest.split_whitespace();
    let value = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak RSS in MiB, or `None` where `/proc` has no
/// `VmHWM` line.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  170716 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(170_716));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(vm_hwm_kib("VmRSS:\t 10 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 10 MB\n"), None);
        assert_eq!(vm_hwm_kib(""), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
