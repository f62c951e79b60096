//! `bench` — the repository's benchmark.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--json]
//! bench --all [--seed N] [--seconds S] [--trace [0|1]] [--json]
//! bench --compare BASE.json NEW.json
//! bench --check [--seed N] [--seconds S]
//! bench --smoke
//! ```
//!
//! A single-workload run prints its metrics as a table and, as the last
//! line of standard output, the one-line JSON result the benchmark driver
//! reads. `--json` prints the full schema-versioned record instead (what
//! `--compare` consumes). `--all` re-executes this binary once per workload
//! so peak memory is per workload.

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use perfbench::compare::{self, Verdict};
use perfbench::json::Json;
use perfbench::report;
use perfbench::run::{run_workload, Options, DEFAULT_SEED};
use perfbench::workloads::{self, Scale, Workload, WORKLOADS};

const USAGE: &str = "usage: bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--json]
       bench --all [--seed N] [--seconds S] [--trace [0|1]] [--json]
       bench --compare BASE.json NEW.json
       bench --check [--seed N] [--seconds S]
       bench --smoke
workloads: list_read hash_update stack_handoff native_update sweep_grid";

/// Default length of the timed phase, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = perfbench::spec::RUN_SECONDS as f64;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    check: bool,
    smoke: bool,
    json: bool,
    trace: bool,
    seed: Option<u64>,
    seconds: Option<f64>,
    compare: Option<(String, String)>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = Some(parse_u64(&v).ok_or(format!("--seed: {v:?} is not a number"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s = v.parse::<f64>().ok().filter(|s| (0.0..=600.0).contains(s));
                args.seconds = Some(s.ok_or(format!("--seconds: {v:?} is not in 0..=600"))?);
            }
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            // A bare `--trace` turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = [
        args.workload.is_some(),
        args.all,
        args.check,
        args.smoke,
        args.compare.is_some(),
    ];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err(
            "give exactly one of --workload, --all, --compare, --check, --smoke".to_string(),
        );
    }
    Ok(args)
}

/// Fail loudly instead of hanging the caller: a single-workload run that is
/// still going long after its timed phase should have ended is wedged (the
/// one known cause: `caharness::sweep`'s workers can deadlock stealing from
/// each other when both drain at the same instant).
fn arm_watchdog(seconds: f64) {
    let deadline = Duration::from_secs_f64(120.0 + 2.0 * seconds);
    std::thread::spawn(move || {
        std::thread::sleep(deadline);
        eprintln!("bench: still running after {deadline:?}; giving up");
        std::process::exit(3);
    });
}

/// Run one workload in this process and return its record entry.
fn measure(w: &'static Workload, options: Options, start: Instant) -> Result<Json, String> {
    let outcome = run_workload(w, options, start)?;
    if let Some(trace) = &outcome.trace {
        let path = format!("results/trace_{}.json", w.name);
        std::fs::create_dir_all("results")
            .and_then(|()| std::fs::write(&path, format!("{trace}\n")))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("[bench] spans written to {path}");
    }
    let entry = report::workload_entry(&outcome);
    let missing = report::missing_metrics(&entry);
    if !missing.is_empty() {
        return Err(format!(
            "{}: metrics without a value: {}",
            w.name,
            missing.join(", ")
        ));
    }
    Ok(entry)
}

/// `--all`: one child process per workload; returns their record entries.
fn measure_all(args: &Args, trace: bool) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let traced = if trace { "1" } else { "0" };
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        eprintln!("[bench] {} (trace {traced}) ...", w.name);
        let out = Command::new(&exe)
            .args(["--workload", w.name, "--json", "--trace", traced])
            .args(["--seed", &args.seed.unwrap_or(DEFAULT_SEED).to_string()])
            .args([
                "--seconds",
                &args.seconds.unwrap_or(DEFAULT_SECONDS).to_string(),
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        if !out.status.success() {
            return Err(format!("workload {} failed ({})", w.name, out.status));
        }
        let doc = Json::parse(&String::from_utf8_lossy(&out.stdout))?;
        let entry = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .and_then(|a| a.first());
        entries.push(entry.cloned().ok_or(format!("{}: empty record", w.name))?);
    }
    Ok(entries)
}

/// Wrap entries into a record and report whether every correctness check
/// in them passed.
fn finish(args: &Args, scale: &str, entries: Vec<Json>) -> (Json, bool) {
    let correct = entries
        .iter()
        .all(|w| w.get("failed").and_then(Json::as_f64) == Some(0.0));
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let record = report::record(report::header(scale, seconds), entries);
    (record, correct)
}

fn print_record(record: &Json, json: bool) {
    if json {
        println!("{record}");
        return;
    }
    println!(
        "# perfbench — {}",
        record.get("header").unwrap_or(&Json::Null)
    );
    for entry in record
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        println!("{}", report::render(entry));
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn real_main(start: Instant) -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let options = |scale: Scale, trace: bool| Options {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace,
        scale,
    };

    if let Some((base, new)) = &args.compare {
        let load = |path: &String| -> Result<Json, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let rows = compare::compare(&load(base)?, &load(new)?)?;
        print!("{}", compare::render(&rows));
        return Ok(exit_code(rows.iter().all(|r| r.verdict != Verdict::Worse)));
    }

    if args.check {
        // The same binary twice: the benchmark must agree with itself
        // within its own bounds, or it cannot judge anything else.
        let (first, first_ok) = finish(&args, "full", measure_all(&args, false)?);
        let (second, second_ok) = finish(&args, "full", measure_all(&args, false)?);
        let rows = compare::compare(&first, &second)?;
        print!("{}", compare::render(&rows));
        let steady = rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Same | Verdict::Better));
        let ok = steady && first_ok && second_ok;
        println!("check: {}", if ok { "passed" } else { "FAILED" });
        return Ok(exit_code(ok));
    }

    if args.smoke {
        // Tiny counts, everything once, in this process: every workload
        // untraced, then traced. Keeps the benchmark from rotting.
        let mut entries = Vec::new();
        for trace in [false, true] {
            for w in &WORKLOADS {
                let mut o = options(Scale::SMOKE, trace);
                o.seconds = 0.0;
                entries.push(measure(w, o, Instant::now())?);
            }
        }
        let (record, ok) = finish(&args, "smoke", entries);
        print_record(&record, args.json);
        eprintln!("[bench] smoke: every check passed: {ok}");
        return Ok(exit_code(ok));
    }

    if args.all {
        let mut entries = measure_all(&args, false)?;
        if args.trace {
            entries.extend(measure_all(&args, true)?);
        }
        let (record, ok) = finish(&args, "full", entries);
        print_record(&record, args.json);
        return Ok(exit_code(ok));
    }

    let name = args
        .workload
        .as_deref()
        .expect("parse_args requires a mode");
    let w = workloads::find(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let o = options(Scale::FULL, args.trace);
    arm_watchdog(o.seconds);
    let entry = measure(w, o, start)?;
    if args.json {
        print_record(&finish(&args, "full", vec![entry]).0, true);
    } else {
        print!("{}", report::render(&entry));
        println!("{}", report::result_line(&entry));
    }
    Ok(ExitCode::SUCCESS)
}

/// Pin glibc malloc's mmap threshold at its initial value. Left alone it
/// rises to the size of the largest block freed so far (up to 32 MiB); from
/// then on simulated memories and native pools are carved out of the heap,
/// and peak RSS follows the free list's history instead of live memory:
/// `sweep_grid` read 8.4 or 12.2 MiB from one run to the next, and
/// `native_update` 47 or 125 MiB depending on how often set-up ran. Pinned,
/// every block of 128 KiB or more is mapped when allocated and unmapped when
/// freed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and touches only the allocator's
    // own settings; it runs first thing in `main`, before any other thread
    // exists. A refusal (return 0) leaves the default behaviour in place.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_threshold() {}

fn main() -> ExitCode {
    let start = Instant::now();
    pin_malloc_threshold();
    match real_main(start) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}
