//! Host facts recorded with every run, and the thread/rank cap.

use std::path::Path;

/// What a result depends on besides the code: cores, build, revision.
#[derive(Clone, Debug)]
pub struct Host {
    /// `std::thread::available_parallelism` (cgroup-aware on Linux).
    pub nproc: usize,
    pub profile: &'static str,
    /// The checked-out commit, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl Host {
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// Refuse a plan that runs more threads or ranks than cores: with
    /// more workers than cores a run measures time-slicing, not the
    /// code.
    pub fn check_cap(&self, threads: usize, ranks: usize) -> Result<(), String> {
        if threads > self.nproc || ranks > self.nproc {
            return Err(format!(
                "refusing to run {threads} thread(s) on {ranks} rank(s): this host has {} core(s)",
                self.nproc
            ));
        }
        Ok(())
    }
}

/// Resolve `HEAD` by reading the git directory (no subprocess).
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(refname)) {
        return Some(rev.trim().to_string());
    }
    // Packed refs: "<sha> <refname>" lines.
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == refname).then(|| sha.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_refuses_more_workers_than_cores() {
        let host = Host {
            nproc: 2,
            profile: "release",
            git_rev: "x".into(),
        };
        assert!(host.check_cap(2, 1).is_ok());
        assert!(host.check_cap(1, 2).is_ok());
        assert!(host.check_cap(3, 1).is_err());
        assert!(host.check_cap(1, 3).is_err());
    }
}
