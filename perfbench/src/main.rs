//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints its checks and metrics as text, and prints one
//! JSON object as the last line of standard output. Span files and a copy of
//! the report go to `.perfbench_out/` under the current directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use perfbench::report::{self, Outcome};
use perfbench::run::{self, Ctx};
use perfbench::suite::{self, WORKLOADS};

fn usage(problem: &str) -> ExitCode {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// FNV-1a over every Rust source and manifest under `roots`, in path order:
/// a stamp of the code measured that needs no git checkout.
fn source_fingerprint(roots: &[&str]) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for file in &files {
        for byte in std::fs::read(file).unwrap_or_default() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{hash:016x} over {} files", files.len())
}

/// The commit checked out, when the current directory is a git checkout.
fn git_sha() -> String {
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", parent)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return usage(&format!("unexpected arguments {pair:?}")),
        }
    }
    let workload = flags.get("workload").cloned().unwrap_or_default();
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    let (Some(seed), Some(seconds), Some(trace)) = (
        flags.get("seed").and_then(|s| s.parse::<u64>().ok()),
        flags.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        flags.get("trace").and_then(|s| match s.as_str() {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage("--seed, --seconds and --trace must be given");
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return usage("--seconds must be positive");
    }
    let ctx = Ctx {
        workload: workload.clone(),
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(".perfbench_out"),
    };

    let mut out = Outcome::default();
    out.note("workload", &workload);
    out.note("git_sha", git_sha());
    out.note(
        "source_fingerprint",
        source_fingerprint(&["crates", "perfbench/src"]),
    );
    out.note("rustc", report::command_line("rustc", &["--version"]));
    out.note("seed", seed);
    out.note("seconds", seconds);
    out.note("trace", u8::from(trace));
    out.note("threads", ctx.threads());
    out.note(
        "cores_available",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    match workload.as_str() {
        "transform_genome" => suite::transform_genome::run(&ctx, &mut out),
        "federated_load" => suite::federated_load::run(&ctx, &mut out),
        _ => suite::standing_service::run(&ctx, &mut out),
    }

    let expected: Vec<(String, &str)> = if trace {
        report::per_layer()
    } else {
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let rendered = out.render(&expected);
    if let Err(e) = run::write_files(&ctx, &out.spans, &rendered) {
        eprintln!(
            "perfbench: could not write under {}: {e}",
            ctx.out_dir.display()
        );
    }
    println!("{rendered}");
    ExitCode::SUCCESS
}
