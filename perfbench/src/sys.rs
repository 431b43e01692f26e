//! Host measurements and provenance: process CPU time and peak RSS via
//! `getrusage`, and the facts every result is recorded with (cores, CPU
//! model, compiler, commit).

use std::path::Path;
use std::process::Command;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s of
/// which only `ru_maxrss` (the first) is read here.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Resource usage of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU time of every thread of the process.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
}

/// Reads this process's resource usage.
pub fn usage() -> Usage {
    let mut raw = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `RUSAGE_SELF` is a valid `who`; getrusage writes
    // only inside the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail on a valid buffer"
    );
    let micros = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Usage {
        cpu: Duration::from_micros(micros(&raw.ru_utime) + micros(&raw.ru_stime)),
        max_rss_kib: raw.ru_maxrss.max(0) as u64,
    }
}

/// Worker threads the sweeps and the server use: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Facts about the host and build that every result carries.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            nproc: nproc(),
            cpu_model,
            rustc: command_line(Command::new("rustc").arg("--version")),
            commit: commit(),
        }
    }
}

/// The commit of the checkout this benchmark sits in. Git may not look
/// above the checkout, so a source export without `.git` (as benchmark
/// checkouts are) reports `unknown` rather than some enclosing repository.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench/ sits inside the repository");
    let mut git = Command::new("git");
    git.arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(above) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    command_line(&mut git)
}

/// First line of a command's standard output, or `unknown` if it fails.
fn command_line(command: &mut Command) -> String {
    command
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}
