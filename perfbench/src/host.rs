//! What the host tells about itself: process memory and fault counters
//! from `/proc`, two fixed calibration loops that tell a noisy host from
//! a slower program, and the provenance block of a result file.

use avfs_obs::json::Json;
use std::process::Command;
use std::time::Instant;

/// Worker threads every workload runs with: the sandbox has two cores,
/// and more workers than cores only measures the scheduler.
pub fn bench_threads() -> usize {
    nproc().min(2)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), MiB; `None` off
/// Linux.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), MiB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// Cumulative per-process counters of `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcStat {
    /// Minor page faults so far.
    pub minor_faults: u64,
    /// Kernel-mode CPU time so far, seconds (all threads).
    pub sys_s: f64,
}

impl ProcStat {
    /// Reads the counters; all-zero off Linux.
    pub fn now() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcStat::parse(&s))
            .unwrap_or_default()
    }

    /// Parses one `/proc/<pid>/stat` line. The command name (field 2)
    /// may contain spaces and parentheses, so fields are counted from
    /// the last `)`.
    pub fn parse(stat: &str) -> Option<ProcStat> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): minflt is field 10, stime 15.
        let minor_faults = fields.get(7)?.parse().ok()?;
        let stime_ticks: f64 = fields.get(12)?.parse().ok()?;
        // USER_HZ is 100 on every Linux ABI Rust targets.
        Some(ProcStat {
            minor_faults,
            sys_s: stime_ticks / 100.0,
        })
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }
}

/// Seconds for a fixed dependent integer-multiply chain: touches no
/// memory, so it stays flat when only the memory system is contended.
pub fn calib_spin_s() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..40_000_000u64 {
        // The hint per step keeps the compiler from collapsing the
        // recurrence into a closed form.
        x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
    }
    start.elapsed().as_secs_f64()
}

/// Seconds for four passes of a 64 MiB stream copy: moves with the
/// memory-system contention that the launch timings move with.
pub fn calib_mem_s() -> f64 {
    const WORDS: usize = 8 << 20;
    let src = vec![1u64; WORDS];
    let mut dst = vec![0u64; WORDS];
    let start = Instant::now();
    for _ in 0..4 {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    }
    start.elapsed().as_secs_f64()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_owned())
}

/// The provenance block: which code, toolchain and machine produced a
/// result file. Every field degrades to `"unknown"` rather than failing —
/// the acceptance checkout is not a git repository.
pub fn provenance() -> Json {
    let unknown = || "unknown".to_owned();
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    Json::Obj(vec![
        ("git_commit".into(), Json::Str(commit)),
        ("git_dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "cpu_model".into(),
            Json::Str(cpu_model().unwrap_or_else(unknown)),
        ),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("threads".into(), Json::Num(bench_threads() as f64)),
        (
            "build_profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "42 (a b) c) R 1 42 42 0 -1 4194304 1234 0 5 0 77 250 0 0 20 0 3 0 100 0 0";
        let stat = ProcStat::parse(line).unwrap();
        assert_eq!(stat.minor_faults, 1234);
        assert_eq!(stat.sys_s, 2.5);
        let later = ProcStat {
            minor_faults: 2000,
            sys_s: 3.0,
        };
        assert_eq!(
            later.since(&stat),
            ProcStat {
                minor_faults: 766,
                sys_s: 0.5
            }
        );
        assert_eq!(ProcStat::parse("garbage"), None);
    }

    #[test]
    fn provenance_has_every_field_even_outside_git() {
        let p = provenance();
        for key in [
            "git_commit",
            "git_dirty",
            "rustc",
            "cpu_model",
            "nproc",
            "threads",
            "build_profile",
        ] {
            assert!(p.get(key).is_some(), "missing {key}");
        }
        assert!(p.get("threads").and_then(Json::as_u64).unwrap() <= 2);
    }
}
