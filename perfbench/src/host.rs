//! Host and regime metadata recorded with every result, and the process
//! memory high-water mark.

use std::path::Path;

/// Peak resident set size of this process so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib * 1024.0)
}

fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The commit under test: `git rev-parse HEAD` when the working directory
/// is itself a git checkout, else `unknown`.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// One JSON object describing the host and the kernel regime a result
/// was measured under.
pub fn metadata_json(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"avx512\": {}, \"kernel_nr\": {}, \"attn_kernel\": \"{}\", \
         \"pool_width\": {}, \"commit\": \"{}\"}}",
        avx512(),
        slimpipe_tensor::matmul::kernel_nr(),
        slimpipe_tensor::attn_kernel().as_str(),
        rayon::current_num_threads(),
        commit(),
    )
}
