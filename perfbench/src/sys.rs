//! Process-level readings from `/proc`: peak resident memory and CPU time
//! split by thread, plus the host tag printed with every run.

use std::fs;

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// On-CPU nanoseconds summed over this process's live threads, leaving out
/// those whose name starts with `exclude_prefix` (the load generator names
/// its threads so their CPU can be left out of the system's).
pub fn process_cpu_ns(exclude_prefix: Option<&str>) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if exclude_prefix.is_some_and(|prefix| comm.trim_end().starts_with(prefix)) {
            continue;
        }
        total += schedstat_ns(&dir.join("schedstat").to_string_lossy());
    }
    total
}

/// Where and how this binary was built and run, printed on every output so
/// numbers from different hosts or builds are never compared.
pub fn host_tag() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} rustc=\"{}\" commit={} profile={} obs_enabled={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_PROFILE"),
        pp_obs::is_enabled()
    )
}
