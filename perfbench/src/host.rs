//! Per-thread CPU accounting from `/proc/self/task/*/{comm,stat}`, and the
//! host facts and provenance recorded with every result.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, fixed at
/// 100 by the Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Thread groups CPU time is attributed to.
pub const GROUPS: [&str; 5] = [
    "client",
    "rinval-commit",
    "rinval-inval",
    "rinval-watchdog",
    "svc",
];

/// CPU seconds per thread group, plus the whole process.
#[derive(Clone, Debug, Default)]
pub struct Cpu {
    pub process_s: f64,
    /// Keyed by thread id; `(group, seconds)`.
    pub threads: BTreeMap<u32, (&'static str, f64)>,
}

/// `utime + stime` in seconds from a `stat` line. The command name is
/// parenthesized and may hold spaces, so fields are counted after the
/// last `)`: `utime` and `stime` are fields 14 and 15 of the line.
fn stat_seconds(line: &str) -> Option<f64> {
    let rest = &line[line.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Which group a thread belongs to. The generator's own threads are the
/// `bench-client-*` clients and the main thread, which only coordinates
/// them; the library names its server threads `rinval-*`; everything else
/// is the svc supervisor and workers (unnamed threads inherit the main
/// thread's name, so they are told apart from it by thread id).
fn group(tid: u32, pid: u32, comm: &str) -> &'static str {
    if tid == pid || comm.starts_with("bench-client") {
        "client"
    } else if comm.starts_with("rinval-commit") {
        "rinval-commit"
    } else if comm.starts_with("rinval-inval") {
        "rinval-inval"
    } else if comm.starts_with("rinval-watchdog") {
        "rinval-watchdog"
    } else {
        "svc"
    }
}

pub fn sample_cpu() -> Cpu {
    let pid = std::process::id();
    let mut cpu = Cpu {
        process_s: fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| stat_seconds(&s))
            .unwrap_or(0.0),
        ..Cpu::default()
    };
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return cpu;
    };
    for ent in dir.flatten() {
        let Some(tid) = ent.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        let p = ent.path();
        // A thread may exit between listing and reading; skip it.
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(p.join("comm")),
            fs::read_to_string(p.join("stat")),
        ) else {
            continue;
        };
        if let Some(s) = stat_seconds(&stat) {
            cpu.threads.insert(tid, (group(tid, pid, comm.trim()), s));
        }
    }
    cpu
}

/// CPU seconds spent between two samples, per group and for the process.
/// Threads born inside the window count from zero.
pub fn cpu_delta(before: &Cpu, after: &Cpu) -> (f64, BTreeMap<&'static str, f64>) {
    let mut groups: BTreeMap<&'static str, f64> = GROUPS.iter().map(|g| (*g, 0.0)).collect();
    for (tid, (g, s)) in &after.threads {
        let s0 = before.threads.get(tid).map_or(0.0, |t| t.1);
        *groups.get_mut(g).expect("every group is listed in GROUPS") += s - s0;
    }
    (after.process_s - before.process_s, groups)
}

/// Host facts and provenance, as `(key, value)` pairs.
pub fn facts() -> Vec<(&'static str, String)> {
    let first_line = |path: &str, prefix: &str| -> String {
        fs::read_to_string(path)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with(prefix))
                    .map(|l| l.split_once(':').map_or(l, |(_, v)| v).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into())
    };
    let run = |prog: &str, args: &[&str]| -> String {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".into())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu_model", first_line("/proc/cpuinfo", "model name")),
        ("kernel", first_line("/proc/sys/kernel/osrelease", "")),
        ("rustc", run(&rustc, &["--version"])),
        // Only a checkout of its own: never a repository further up.
        (
            "git_rev",
            if Path::new(".git").exists() {
                run("git", &["rev-parse", "HEAD"])
            } else {
                "none".into()
            },
        ),
        ("source_digest", source_digest()),
        (
            "features",
            [
                ("failpoints", cfg!(feature = "failpoints")),
                ("scan-kernel-scalar", cfg!(feature = "scan-kernel-scalar")),
            ]
            .iter()
            .filter(|(_, on)| *on)
            .map(|(f, _)| *f)
            .collect::<Vec<_>>()
            .join(","),
        ),
    ]
}

/// FNV-1a over the library sources (paths and contents, in sorted
/// order). Identifies the measured code where no git metadata exists.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").into(),
        Path::new("Cargo.lock").into(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let Ok(bytes) = fs::read(f) else { continue };
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a64:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_after_parenthesized_comm() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(stat_seconds(line), Some(3.0));
    }

    #[test]
    fn this_thread_is_a_client() {
        let cpu = sample_cpu();
        assert!(cpu.process_s >= 0.0);
        assert!(cpu.threads.values().any(|t| t.0 == "client"));
    }
}
