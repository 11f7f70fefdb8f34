//! Process resources from `/proc` and the provenance every result carries.

use std::path::Path;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time and page faults of the whole process (every thread, live or
/// exited), read from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: f64,
}

impl ProcSample {
    /// The current sample; zeros where `/proc` is unavailable.
    pub fn now() -> ProcSample {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
        }
    }
}

/// Parse `/proc/<pid>/stat`: fields are counted from 1 and the command
/// name (field 2) may hold spaces, so count from the last `)`.
fn parse_stat(stat: &str) -> Option<ProcSample> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3.
    let field = |k: usize| -> Option<f64> { fields.get(k - 3)?.parse().ok() };
    Some(ProcSample {
        minor_faults: field(10)?,
        user_s: field(14)? / TICKS_PER_SECOND,
        sys_s: field(15)? / TICKS_PER_SECOND,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a result came from.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// The workload seed.
    pub seed: u64,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the checkout, when it is a git working tree.
    pub commit: String,
}

impl Provenance {
    /// Gather provenance for a run with `seed`, reading the commit from
    /// the `.git` directory under `root` (without spawning `git`).
    pub fn gather(seed: u64, root: &Path) -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("HOSTBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit(root).unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_spaces_in_the_command_name() {
        let line = "42 (my (odd) prog) S 1 2 3 4 5 6 777 8 9 10 250 30 0 0 20 0 3";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 777.0);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.3);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn own_process_is_readable() {
        let a = ProcSample::now();
        let _burn: Vec<u64> = (0..200_000).collect();
        let b = ProcSample::now();
        assert!(b.since(&a).minor_faults >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
