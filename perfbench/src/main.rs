//! `perfbench` — the end-to-end and per-layer benchmark of `sgs`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload count-insert|count-turnstile|serve-mixed \
//!     --seed N --seconds S --trace 0|1 [--wrong-answer]
//! ```
//!
//! Run from the repository root. It builds the `sgs` binary from source
//! (into `$CARGO_TARGET_DIR`, default `target/`), generates the
//! workload's inputs from `--seed` in `.perfbench-work/`, measures for
//! `--seconds`, checks every answer, and prints one JSON result line
//! last. `--trace 0` drives the binary and the socket and reports the
//! end-to-end metrics; `--trace 1` also replays the workload in-process
//! through the library calls the CLI and the node make, timing each call
//! as a span, and reports the per-layer metrics. `--wrong-answer`
//! perturbs every expected answer so the gates must fail: it shows that
//! a wrong answer makes the benchmark exit non-zero.
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod count;
mod gen;
mod proc;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

pub const WORKLOADS: [&str; 3] = ["count-insert", "count-turnstile", "serve-mixed"];

/// One benchmark run's settings.
pub struct Ctx {
    /// The `sgs` binary under test.
    pub sgs: PathBuf,
    /// Scratch directory for inputs and node state (removed at exit).
    pub work: PathBuf,
    /// Where traced runs write their spans.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Perturb expected answers (gate self-test).
    pub wrong: bool,
}

impl Ctx {
    /// The exact triangle count a gate compares against.
    pub fn expected(&self, exact: u64) -> u64 {
        if self.wrong {
            exact * 4 + 1_000
        } else {
            exact
        }
    }

    /// The estimate bits a gate compares against.
    pub fn expected_bits(&self, bits: &str) -> String {
        if self.wrong {
            format!("{bits}0")
        } else {
            bits.to_string()
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    wrong: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--wrong-answer]",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
        wrong: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--wrong-answer" => {
                args.wrong = true;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload '{}'", args.workload));
    }
    args
}

/// Build `sgs` from the checkout in the current directory and return
/// the binary's path.
fn build_sgs(root: &Path) -> Result<PathBuf, String> {
    if !root.join("Cargo.toml").is_file() || !root.join("src/bin/sgs.rs").is_file() {
        return Err(format!("{} is not an sgs checkout", root.display()));
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "sgs"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of sgs failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("sgs");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

fn run(args: &Args, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    match (args.workload.as_str(), args.trace) {
        ("count-insert", false) => count::run_insert(ctx, out),
        ("count-turnstile", false) => count::run_turnstile(ctx, out),
        ("serve-mixed", false) => {
            let traffic = serve::run(ctx, out)?;
            serve::metrics(&traffic, out)
        }
        ("count-insert", true) => trace::count_insert(ctx, out),
        ("count-turnstile", true) => trace::count_turnstile(ctx, out),
        ("serve-mixed", true) => trace::serve_mixed(ctx, out),
        _ => unreachable!("workload validated by parse_args"),
    }
}

fn main() {
    let args = parse_args();
    let root = std::env::current_dir().unwrap_or_else(|e| {
        eprintln!("error: no current directory: {e}");
        exit(1);
    });
    let sgs = build_sgs(&root).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });
    let work = root.join(".perfbench-work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: creating {}: {e}", work.display());
        exit(1);
    }
    let ctx = Ctx {
        sgs,
        work: work.clone(),
        out: root.join(".perfbench-out"),
        seed: args.seed,
        seconds: args.seconds,
        wrong: args.wrong,
    };
    let mut out = Outcome::default();
    let result = run(&args, &ctx, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    if let Err(e) = &result {
        eprintln!("error: {e}");
        out.failed += 1;
        out.attempted += 1;
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!("{}", out.result_line());
    if out.failed > 0 {
        exit(1);
    }
}
