//! What the benchmark reads about the host: process CPU time, peak
//! memory, a fixed calibration score, and the provenance of a result.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// CPU seconds (user + system, all threads) this process has used.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, ts: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux), and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process, in MB. Every job runs in a
/// process of its own, so this is the job's peak.
pub fn peak_rss_mb() -> f64 {
    bgp_bench::figures::peak_rss_bytes() as f64 / 1e6
}

/// Size of the host's last-level cache, from sysfs (32 MiB when it
/// cannot be read).
fn llc_bytes() -> usize {
    let mut best = (0u32, 32usize << 20);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().ok().map(|k| k << 10),
            None => size
                .strip_suffix('M')
                .and_then(|m| m.parse::<usize>().ok())
                .map(|m| m << 20),
        };
        if let Some(bytes) = bytes {
            if level >= best.0 {
                best = (level, bytes);
            }
        }
    }
    best.1
}

/// A fixed, std-only score of the host, so figures from different
/// hosts can be set side by side. It is recorded, never gated on.
pub struct Calibration {
    /// Nanoseconds per step of a dependent integer multiply-xor chain.
    pub int_ns: f64,
    /// Nanoseconds per load of a pointer chase over [`Self::buffer_mb`].
    pub chase_ns: f64,
    /// Chase buffer size: four times the last-level cache.
    pub buffer_mb: f64,
}

const CALIB_INT_STEPS: u64 = 50_000_000;
const CALIB_CHASE_STEPS: u64 = 2_000_000;
/// `u64` words per 64-byte line: the chase touches one word per line.
const LINE_WORDS: usize = 8;

pub fn calibrate() -> Calibration {
    let t = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..CALIB_INT_STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i);
        x ^= x >> 29;
    }
    black_box(x);
    let int_ns = t.elapsed().as_secs_f64() * 1e9 / CALIB_INT_STEPS as f64;

    // One pointer per line, linked in the order of a full-period LCG
    // modulo the next power of two, skipping indices past the end: the
    // links form a single cycle over every line, in an order no stride
    // prefetcher follows.
    let lines = (4 * llc_bytes()).div_ceil(64);
    let mask = lines.next_power_of_two() as u64 - 1;
    let step = |i: u64| {
        i.wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F)
            & mask
    };
    let mut buf = vec![0u64; lines * LINE_WORDS];
    for i in 0..lines as u64 {
        let mut j = step(i);
        while j >= lines as u64 {
            j = step(j);
        }
        buf[i as usize * LINE_WORDS] = j * LINE_WORDS as u64;
    }
    let t = Instant::now();
    let mut p = 0usize;
    for _ in 0..CALIB_CHASE_STEPS {
        p = buf[p] as usize;
    }
    black_box(p);
    let chase_ns = t.elapsed().as_secs_f64() * 1e9 / CALIB_CHASE_STEPS as f64;
    Calibration {
        int_ns,
        chase_ns,
        buffer_mb: (buf.len() * 8) as f64 / 1e6,
    }
}

/// Where a result came from: the commit (or, outside a git checkout, a
/// digest of the program's sources) and the host's CPU count.
pub struct Provenance {
    pub git_rev: String,
    pub source_digest: String,
    pub nproc: usize,
}

pub fn provenance() -> Provenance {
    // The repository root the benchmark was built from.
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = crate::digest::Fnv::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.bytes(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.bytes(&bytes);
        }
    }
    Provenance {
        git_rev,
        source_digest: h.hex(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}
