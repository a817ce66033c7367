//! What the benchmark reads from the host: its own memory figures from
//! `/proc/self/status`, and the facts printed in the run header so a
//! result can be traced to the machine and commit that produced it.

use std::process::Command;

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
}

/// Peak resident set of this process (`VmHWM`), bytes. 0 where `/proc` is
/// not available.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM").unwrap_or(0) * 1024
}

/// Current resident set of this process (`VmRSS`), bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS").unwrap_or(0) * 1024
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` in the working directory
/// without leaving it (a benchmark checkout need not be a repository).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run header: host, toolchain, commit and run shape.
pub fn header(seed: u64, scale: f64, seconds: f64, timer_overhead_ns: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# rafda benchmark | nproc {nproc} | cpu {} | {} | commit {} | seed {seed} | scale {scale} \
         | seconds {seconds} | driver.timer_overhead_ns {timer_overhead_ns:.1}",
        cpu_model(),
        rustc_version(),
        git_commit(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_figures_are_read_and_ordered() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        let (rss, peak) = (rss_bytes(), peak_rss_bytes());
        assert!(rss > 0, "VmRSS not parsed");
        assert!(peak >= rss, "VmHWM {peak} below VmRSS {rss}");
    }

    #[test]
    fn the_header_names_every_field() {
        let h = header(42, 1.0, 10.0, 21.5);
        for field in [
            "nproc",
            "cpu",
            "commit",
            "seed 42",
            "scale 1",
            "driver.timer_overhead_ns 21.5",
        ] {
            assert!(h.contains(field), "{field} missing from {h}");
        }
    }
}
