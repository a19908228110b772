//! The host block every result carries, so numbers from different
//! machines or toolchains are never compared as if alike.

use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Host {
    pub cpu_model: String,
    pub nproc: usize,
    /// Whether the batched refit engine's AVX-512 path is available.
    pub avx512f: bool,
    pub rustc: String,
    pub git: String,
    /// The refit fan-out's thread cap (`SimConfig::refit_threads` auto
    /// setting); rounds with few refits run serially below it.
    pub refit_threads: usize,
    /// Wall time of [`calibration`], ms: a fixed pure-CPU loop that
    /// shows host speed drift between two result files.
    pub calibration_ms: f64,
}

impl Host {
    pub fn probe() -> Host {
        Host {
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| {
                    info.lines()
                        .find_map(|l| l.strip_prefix("model name"))
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            avx512f: avx512f(),
            rustc: command_line("rustc", &["-V"]),
            git: command_line("git", &["describe", "--always", "--dirty"]),
            refit_threads: optimus_parallel::available_threads(),
            calibration_ms: calibration(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: {} | nproc {} | avx512f {} | {} | git {} | refit threads {} | calibration {:.2} ms",
            self.cpu_model,
            self.nproc,
            self.avx512f,
            self.rustc,
            self.git,
            self.refit_threads,
            self.calibration_ms
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx512f() -> bool {
    false
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Median of five timings of a fixed integer and floating-point loop.
fn calibration() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let (mut x, mut acc) = (black_box(0x2545_F491_4F6C_DD1Du64), 0.0f64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc * 0.999_999 + (x >> 11) as f64 * 1e-16;
            }
            black_box(acc);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}
