//! Host fingerprint stamped on every result, so numbers from different
//! machines or builds are never compared silently.

use std::path::Path;
use std::process::Command;

/// Where and from what a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `target-cpu` the build lowered to, plus the wide-vector features
    /// that level enabled.
    pub target_cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout (`none` outside a git checkout).
    pub git_rev: String,
    /// Tracked files differ from the commit (`false` when unknown).
    pub dirty: bool,
}

impl Host {
    /// Probe the current process, build and working directory.
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let mut target_cpu = env!("GLITCHBENCH_TARGET_CPU").to_owned();
        for (on, feature) in [
            (cfg!(target_feature = "avx2"), "avx2"),
            (cfg!(target_feature = "avx512f"), "avx512f"),
            (cfg!(target_feature = "avx512vpopcntdq"), "avx512vpopcntdq"),
        ] {
            if on {
                target_cpu.push('+');
                target_cpu.push_str(feature);
            }
        }
        let (git_rev, dirty) = git_state(Path::new("."));
        Host {
            nproc,
            cpu_model,
            target_cpu,
            rustc: env!("GLITCHBENCH_RUSTC").to_owned(),
            git_rev,
            dirty,
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"target_cpu\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"dirty\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.target_cpu),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            self.dirty
        )
    }
}

/// Commit and dirty flag of a checkout rooted at `root`. Only a `.git`
/// directory directly under `root` is consulted, so a benchmark run in
/// an exported tree never reads outside it.
fn git_state(root: &Path) -> (String, bool) {
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("--git-dir")
            .arg(root.join(".git"))
            .arg("--work-tree")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    if !root.join(".git").exists() {
        return ("none".to_owned(), false);
    }
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    (rev, dirty)
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    gm_obs::escape_into(s, &mut out);
    out.push('"');
    out
}
