//! The command line: one workload per process, `--all` to run every
//! workload and both kinds of run as child processes, `compare` to hold
//! two result documents against the bounds in `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use crate::compare;
use crate::json::Json;
use crate::spec::WORKLOADS;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx, Profile};

const USAGE: &str = "\
usage:
  benchrun --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>] [--trace-out <file>]
  benchrun --all --seed <n> [--seconds <s>] [--smoke] [--out <file>]
  benchrun compare <a.json> <b.json> [--spec <BENCHMARK.json>]

workloads: point_lookup quantified_scan adhoc_plan ingest_recover
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
The last line of a single run's output is one JSON object: correct, attempted, failed, metrics.";

/// The default window, in seconds, when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 12.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 170.0) {
                    return Err("--seconds must lie in (0, 170]".to_string());
                }
                a.seconds = Some(seconds);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give either --workload <name> or --all".to_string());
    }
    Ok(a)
}

/// A directory of this process's own beside the executable — inside the
/// build directory, which is the only place the benchmark writes to.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("benchrun-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Entry point; `args` are the arguments after the program name.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--help" | "-h") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(_) => parse(&args).and_then(|a| {
            let scratch = scratch_dir()?;
            let outcome = if a.all {
                run_all(&a, &scratch)
            } else {
                run_one(&a, &scratch)
            };
            let _ = std::fs::remove_dir_all(&scratch);
            outcome
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchrun: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process.  `Ok(false)`: it ran, but an
/// operation failed or an output was wrong.
fn run_one(a: &Args, scratch: &Path) -> Result<bool, String> {
    let name = a.workload.as_deref().unwrap_or_default();
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    let ctx = Ctx {
        seed: a.seed,
        window: Duration::from_secs_f64(seconds),
        trace: a.trace,
        profile: if a.smoke {
            Profile::smoke()
        } else {
            Profile::full()
        },
        tracer: Tracer::default(),
        scratch: scratch.to_path_buf(),
    };
    let report = workloads::run(name, &ctx)?;
    println!(
        "# benchrun {name}  seed={} seconds={seconds} trace={} threads={}",
        a.seed,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    print!("{}", report.table(a.trace)?);
    if let Some(path) = &a.out {
        write_file(path, &report.document(a.trace)?.render())?;
    }
    if let Some(path) = &a.trace_out {
        write_file(path, &ctx.tracer.to_json().render())?;
    }
    println!("{}", report.contract_line(a.trace)?);
    Ok(report.correct())
}

/// Runs every workload twice — untraced, then traced — each in a child
/// process of its own, so that peak memory and allocator state do not
/// leak from one into the next, and merges what they report.
fn run_all(a: &Args, scratch: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seconds = a.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut all_correct = true;
    let mut by_workload = Json::obj();
    for name in WORKLOADS {
        let mut entry = Json::obj();
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = scratch.join(format!("{name}-{trace}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(&out);
            if a.smoke {
                child.arg("--smoke");
            }
            // `output` waits for the child to end.
            let done = child.output().map_err(|e| format!("start {name}: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&done.stdout));
            eprint!("{}", String::from_utf8_lossy(&done.stderr));
            let text = std::fs::read_to_string(&out)
                .map_err(|_| format!("{name} --trace {trace} left no result ({})", done.status))?;
            let doc = Json::parse(&text)?;
            all_correct &=
                done.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
            entry = entry.with(key, doc);
        }
        by_workload = by_workload.with(name, entry);
    }
    let doc = Json::obj()
        .with("benchrun", 1u64)
        .with("seed", a.seed)
        .with("seconds", seconds)
        .with("smoke", a.smoke)
        .with("workloads", by_workload)
        .render();
    match &a.out {
        Some(path) => write_file(path, &doc)?,
        None => println!("{doc}"),
    }
    Ok(all_correct)
}
