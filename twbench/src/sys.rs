//! Process and host readings taken from outside the engine: CPU time and
//! peak RSS from `/proc/self`, the host fingerprint, and the `PDES_*`
//! environment guard.

use std::fs;

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (every thread, including
/// ones that have exited), from `/proc/self/stat` fields 14 and 15.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it follow
    // the last ')'. utime and stime are fields 14 and 15, i.e. the 12th and
    // 13th after the name.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

extern "C" {
    /// glibc: return the heap's free pages to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Return freed heap pages to the kernel, then reset the process's `VmHWM`
/// to its current RSS, so the next [`peak_rss_mib`] reading covers only
/// what runs after this call, as in a fresh process.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free pages of the allocator's own
    // arenas; it touches no memory the program holds.
    unsafe { malloc_trim(0) };
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Every `PDES_*` variable in the environment. `EngineConfig::new` seeds
/// audit, GVT mode, checkpointing and the observability settings from them,
/// so any one of them changes the program being measured.
pub fn pdes_env() -> Vec<String> {
    let mut vars: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PDES_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vars.sort();
    vars
}

/// One line naming the host and build: hardware threads, CPU model,
/// compiler, source revision and the `PDES_*` environment.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" rev={} pdes_env=[{}]",
        env!("TWBENCH_RUSTC"),
        git_rev(),
        pdes_env().join(" ")
    )
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; "none" when the tree is not a git checkout.
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(hash) = fs::read_to_string(format!(".git/{r}")) {
        return hash.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `(min, max)` of a sample (`(0, 0)` for an empty one).
pub fn range(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
