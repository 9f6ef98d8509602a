//! One benchmark for mine → publish → serve.
//!
//! ```text
//! gar-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run of one workload; the last line of standard output is the
//!     result object (what the driver in BENCHMARK.json runs)
//! gar-benchmark run   [--seed N] [--seconds S] [--runs R] [--out FILE]
//!     every workload with tracing off, each run in a process of its own
//! gar-benchmark trace [--seed N] [--seconds S] [--out FILE]
//!     every workload once with tracing on: the per-layer numbers
//! gar-benchmark compare A.json B.json
//!     two files written by run/trace against the bounds; exit 1 on a breach
//! ```
//!
//! Run from the repository root, e.g.
//! `cargo run --release --manifest-path benchmark/Cargo.toml -- run`.
//! See `benchmark/README.md` for what each workload and metric is for.

mod compare;
mod input;
mod layers;
mod pipeline;
mod probe;
mod report;
mod spec;
mod stats;
mod sys;
mod trace;

use gar_obs::json::{parse, Value};
use spec::{Workload, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// `--seconds` when `run`/`trace` are not told otherwise; the same value
/// as `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 28.0;
const DEFAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => fleet(&args[1..], false),
        Some("trace") => fleet(&args[1..], true),
        Some("compare") => compare_files(&args[1..]),
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => Err(format!("usage:\n{}", usage())),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gar-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "  gar-benchmark --workload NAME --seed N --seconds S --trace 0|1\n  \
     gar-benchmark run   [--seed N] [--seconds S] [--runs R] [--out FILE]\n  \
     gar-benchmark trace [--seed N] [--seconds S] [--out FILE]\n  \
     gar-benchmark compare A.json B.json"
}

/// `--key value` lookup with a default; rejects unknown flags so a typo
/// cannot silently run the default.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
        for pair in args.chunks(2) {
            let key = pair[0]
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {:?}", pair[0]))?;
            if !known.contains(&key) {
                return Err(format!("unknown flag --{key}\n{}", usage()));
            }
            if pair.len() < 2 {
                return Err(format!("--{key} needs a value"));
            }
        }
        Ok(Flags { args })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.args
            .chunks(2)
            .find(|pair| pair[0].strip_prefix("--") == Some(key))
            .map(|pair| pair[1].as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(text) => text.parse().map_err(|_| format!("bad --{key} {text:?}")),
        }
    }
}

fn seconds_flag(flags: &Flags<'_>) -> Result<f64, String> {
    let seconds: f64 = flags.parsed("seconds", DEFAULT_SECONDS)?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    Ok(seconds)
}

/// The driver's entry: one workload, one process, one result line.
fn one_workload(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("missing --workload")?;
    let (index, w) = WORKLOADS
        .iter()
        .enumerate()
        .find(|(_, w)| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", workload_names()))?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let seconds = seconds_flag(&flags)?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };

    let _watchdog = sys::Watchdog::arm(
        format!("workload {name}"),
        Duration::from_secs(spec::WATCHDOG_S),
    );
    println!(
        "{name}: seed {seed}, {seconds} s, trace {}, nproc {}",
        u8::from(traced),
        sys::nproc()
    );
    let outcome = if traced {
        layers::run(index, w, seed, seconds)
    } else {
        pipeline::run(w, seed, seconds)
    }
    .map_err(|e| format!("{name}: {e}"))?;
    outcome.print_table(name);
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn workload_names() -> String {
    WORKLOADS.map(|w| w.name).join(", ")
}

fn describe(w: &Workload) -> String {
    format!(
        "{:<14} {:?} scale {} (sample of a {}x population), minsup {}, max_pass {:?}, conf {}, {:?}, memory {} x |C2|/{}, {:?}",
        w.name,
        w.preset,
        w.scale,
        spec::POPULATION_FACTOR,
        w.min_support,
        w.max_pass,
        w.min_confidence,
        w.miner,
        w.memory_factor,
        spec::NODES,
        w.traffic
    )
}

fn print_header(seed: u64, seconds: f64, runs: usize, traced: bool) {
    println!(
        "gar-benchmark: mine -> publish -> serve, tracing {}",
        if traced { "on" } else { "off" }
    );
    println!(
        "seed {seed} (+0..{runs}), {seconds} s per run, in rounds of set-up, mine, publish and one serve window"
    );
    println!(
        "nproc {}, {}, commit {}",
        sys::nproc(),
        sys::rustc_version(),
        sys::commit()
    );
    println!(
        "frozen: structure seed {}, {} nodes, baskets of {} items, top-k {}, every {}th answer checked, \
         client deadline {} ms, cluster deadline {} s, at least {} rounds",
        spec::STRUCTURE_SEED,
        spec::NODES,
        spec::BASKET_LEN,
        spec::TOP_K,
        spec::VERIFY_EVERY,
        spec::CLIENT_DEADLINE_MS,
        spec::CLUSTER_DEADLINE_S,
        spec::MIN_ROUNDS
    );
    for w in &WORKLOADS {
        println!("  {}", describe(w));
        println!("  {:<14} why: {}", "", w.why);
    }
}

/// Runs every workload in a child process each (so peak memory and a
/// crash stay the workload's own), relays what it prints, and collects
/// the result lines into one file for `compare`.
fn fleet(args: &[String], traced: bool) -> Result<ExitCode, String> {
    let flags = Flags::new(args, &["seed", "seconds", "runs", "out"])?;
    let seed: u64 = flags.parsed("seed", DEFAULT_SEED)?;
    let seconds = seconds_flag(&flags)?;
    let runs: usize = flags.parsed("runs", 1)?;
    let default_out = pipeline::out_dir().join(format!(
        "{}-{seed}.json",
        if traced { "trace" } else { "run" }
    ));
    let out = flags.get("out").map_or(default_out, Into::into);
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;

    print_header(seed, seconds, runs, traced);
    let mut records = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        for run_seed in (seed..).take(runs) {
            println!();
            let child = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .output()
                .map_err(|e| format!("starting {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            // The last line is the result object when the run got that far.
            let result = lines
                .last()
                .and_then(|last| parse(last).ok())
                .filter(|v| v.get("metrics").is_some());
            if result.is_some() {
                lines.pop();
            }
            for line in lines {
                println!("{line}");
            }
            let correct = child.status.success()
                && result.as_ref().and_then(|r| r.get("correct")) == Some(&Value::Bool(true));
            if !correct {
                println!("  FAILED {}: exit {}", w.name, child.status);
            }
            all_correct &= correct;
            records.push(Value::Obj(vec![
                ("workload".into(), Value::Str(w.name.into())),
                ("seed".into(), Value::Num(run_seed as f64)),
                ("trace".into(), Value::Num(f64::from(u8::from(traced)))),
                ("result".into(), result.unwrap_or(Value::Null)),
            ]));
        }
    }

    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str("gar-benchmark-v1".into())),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("nproc".into(), Value::Num(sys::nproc() as f64)),
        ("rustc".into(), Value::Str(sys::rustc_version())),
        ("commit".into(), Value::Str(sys::commit())),
        ("runs".into(), Value::Arr(records)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.render()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("\n[written {}]", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(format!("compare takes two files\n{}", usage()));
    };
    let (breaches, _unresolved) =
        compare::compare(&compare::RunSet::load(a)?, &compare::RunSet::load(b)?);
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
