//! Host fingerprint, peak memory, and the run's scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// What a run record says about the machine and the build.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]);
    // Only this checkout's own commit: a checkout nested in some other
    // repository reports `unknown`.
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let here = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let commit = if here.is_some() && std::fs::canonicalize(&top).ok() == here {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    format!("nproc {nproc}; cpu {cpu}; {rustc}; commit {commit}")
}

/// First stdout line of a short command, or `unknown`. The child is
/// waited for before returning.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The process's peak resident set (`VmHWM`) in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The build directory (`CARGO_TARGET_DIR`, else the package's
/// `target`), where run-time files go.
pub fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from)
}

/// A per-process directory under the build directory (inside the
/// checkout), removed again on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = build_dir().join(format!("bench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
