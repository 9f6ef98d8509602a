//! Process-spawning subcommands: loom model checking, miri, tsan, and
//! the serving-layer smoke (`serve-smoke`).
//!
//! miri and tsan require toolchain components this build environment may
//! not have (there is no network to install them). Both probe first and
//! skip with an explanation when unavailable; `--strict` turns a skip
//! into a failure so CI environments that *do* have the components can
//! enforce them.

use std::io::BufRead;
use std::path::Path;
use std::process::Command;

fn strict(args: &[String]) -> bool {
    args.iter().any(|a| a == "--strict")
}

fn passthrough(args: &[String]) -> impl Iterator<Item = &String> {
    args.iter().filter(|a| *a != "--strict")
}

/// Runs `cmd`, echoing it first; returns the exit code (101 if the
/// process could not be spawned or was killed by a signal).
fn run_echoed(cmd: &mut Command) -> u8 {
    eprintln!("xtask: running {:?}", cmd);
    match cmd.status() {
        Ok(st) if st.success() => 0,
        Ok(st) => st.code().map(|c| c.min(255) as u8).unwrap_or(101),
        Err(e) => {
            eprintln!("xtask: failed to spawn {:?}: {e}", cmd.get_program());
            101
        }
    }
}

/// True if `cmd` runs and exits 0 (output discarded).
fn probe(mut cmd: Command) -> bool {
    cmd.stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Model-checks the cluster collectives and the serve-layer epoch cell.
/// Compiles with `--cfg gar_loom`, switching `gar_modelcheck::shim`
/// from the std primitives to the virtual ones, then runs the exhaustive
/// schedule-enumeration suites. The checker's own unit tests run first
/// so a broken checker cannot vacuously pass the suites. A separate
/// target dir keeps the `--cfg` flag from invalidating the main build
/// cache.
pub fn loom(root: &Path, args: &[String]) -> u8 {
    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("--cfg gar_loom");

    let code = run_echoed(Command::new("cargo").current_dir(root).args([
        "test",
        "-q",
        "-p",
        "gar-modelcheck",
    ]));
    if code != 0 {
        eprintln!("xtask loom: the model checker's own tests failed; not running the suite");
        return code;
    }

    for (pkg, suite) in [
        ("gar-cluster", "loom_collectives"),
        ("gar-serve", "loom_epoch"),
    ] {
        let code = run_echoed(
            Command::new("cargo")
                .current_dir(root)
                .env("RUSTFLAGS", &rustflags)
                .args([
                    "test",
                    "-q",
                    "-p",
                    pkg,
                    "--test",
                    suite,
                    "--target-dir",
                    "target/loom",
                ])
                .args(passthrough(args)),
        );
        if code != 0 {
            return code;
        }
    }
    0
}

/// Runs the seeded chaos soak: the `gar-mining` chaos suite (fault
/// schedules vs. the byte-identical-output claim), the `gar-fpg` chaos
/// suite (mid-projection panics vs. the byte-identical-GRUL claim),
/// plus the cluster crate's fault-injection unit tests.
/// `GAR_CHAOS_ITERS` scales how many seeds each soak case explores
/// (default shown below); every failure message embeds the `FaultPlan`
/// spec that reproduces it.
pub fn chaos(root: &Path, args: &[String]) -> u8 {
    let iters = std::env::var("GAR_CHAOS_ITERS").unwrap_or_else(|_| "25".into());
    eprintln!("xtask chaos: GAR_CHAOS_ITERS={iters} (seeds per soak case)");
    for suite in ["gar-mining", "gar-fpg"] {
        let code = run_echoed(
            Command::new("cargo")
                .current_dir(root)
                .env("GAR_CHAOS_ITERS", &iters)
                .args(["test", "-q", "-p", suite, "--test", "chaos"])
                .args(passthrough(args)),
        );
        if code != 0 {
            return code;
        }
    }
    run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .args(["test", "-q", "-p", "gar-cluster", "fault"])
            .args(passthrough(args)),
    )
}

/// Runs the serve-layer chaos soak: the `gar-serve` chaos suite drives
/// a real TCP server through shard panics, connection resets, slow
/// frames, corrupt mid-swap stores, and overload bursts, asserting the
/// robustness invariants (no process abort, every accepted query
/// answered correctly or typed-retryable, byte-identical post-recovery
/// transcripts, epoch monotonicity). `GAR_SERVE_CHAOS_SEEDS` pins the
/// seed matrix so CI failures reproduce locally; the serve-side fault
/// grammar unit tests run alongside.
pub fn serve_chaos(root: &Path, args: &[String]) -> u8 {
    let seeds = std::env::var("GAR_SERVE_CHAOS_SEEDS").unwrap_or_else(|_| "11,23,47".into());
    eprintln!("xtask serve-chaos: GAR_SERVE_CHAOS_SEEDS={seeds}");
    let code = run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .env("GAR_SERVE_CHAOS_SEEDS", &seeds)
            .args(["test", "-q", "-p", "gar-serve", "--test", "chaos"])
            .args(passthrough(args)),
    );
    if code != 0 {
        return code;
    }
    run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .args(["test", "-q", "-p", "gar-cluster", "serve"])
            .args(passthrough(args)),
    )
}

/// Runs the CI job sequence locally, in the same order the workflow
/// does: format + clippy, static analysis, build + test,
/// loom, chaos, serve-chaos, bench (with the wall gate) and
/// serve-smoke. Stops at the first failing job so the console ends
/// at the same place the CI log would. `cargo xtask ci` before pushing
/// ≈ a green run.
pub fn ci(root: &Path, _args: &[String]) -> u8 {
    let jobs: &[(&str, &dyn Fn() -> u8)] = &[
        ("fmt", &|| {
            run_echoed(
                Command::new("cargo")
                    .current_dir(root)
                    .args(["fmt", "--all", "--check"]),
            )
        }),
        ("clippy", &|| {
            run_echoed(Command::new("cargo").current_dir(root).args([
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ]))
        }),
        ("analyze", &|| {
            crate::analyze::run(root, &["--check".to_string()])
        }),
        ("test", &|| {
            run_echoed(Command::new("cargo").current_dir(root).args(["test", "-q"]))
        }),
        ("loom", &|| loom(root, &[])),
        ("chaos", &|| chaos(root, &[])),
        ("serve-chaos", &|| serve_chaos(root, &[])),
        ("bench", &|| {
            bench(root, &["--check".to_string(), "--gate-wall".to_string()])
        }),
        ("serve-smoke", &|| serve_smoke(root, &[])),
    ];
    for (name, job) in jobs {
        eprintln!("\nxtask ci: ===== {name} =====");
        let code = job();
        if code != 0 {
            eprintln!("xtask ci: job `{name}` failed (exit {code})");
            return code;
        }
    }
    eprintln!("\nxtask ci: all jobs green");
    0
}

/// Runs the perf-regression bench gate: builds and runs the
/// `bench_gate` binary from `gar-bench` in release mode, passing every
/// argument through (`--check`, `--gate-wall`, `--tolerance F`,
/// `--out FILE`). The binary owns the smoke matrix, the baseline
/// comparison, and the CI step summary; xtask just gives it a stable
/// entry point (`cargo xtask bench [--check] [--gate-wall]`).
pub fn bench(root: &Path, args: &[String]) -> u8 {
    run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .args([
                "run",
                "--release",
                "-q",
                "-p",
                "gar-bench",
                "--bin",
                "bench_gate",
                "--",
            ])
            .args(args.iter()),
    )
}

/// The end-to-end serving smoke: mine a tiny dataset, persist the rule
/// store, serve it at 1 and 4 shards, and drive it with the seeded
/// `serve_load` generator. Asserts the pipeline's two load-bearing
/// claims — two identical runs produce byte-identical response
/// transcripts, and throughput is nonzero — then checks that the
/// server's metrics file carries per-shard query counters. Writes the
/// collected p50/p99/QPS numbers as a `gar-serve-bench-v1` baseline to
/// `--out FILE` (default `BENCH_PR4.fresh.json`, so the committed
/// `BENCH_PR4.json` is never clobbered by accident).
pub fn serve_smoke(root: &Path, args: &[String]) -> u8 {
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| root.join("BENCH_PR4.fresh.json"), |p| root.join(p));

    let code = run_echoed(Command::new("cargo").current_dir(root).args([
        "build",
        "--release",
        "-q",
        "-p",
        "gar-cli",
        "-p",
        "gar-bench",
    ]));
    if code != 0 {
        return code;
    }
    let cli = root.join("target/release/gar-cli");
    let load = root.join("target/release/serve_load");

    let work = root.join("target/serve-smoke");
    drop(std::fs::remove_dir_all(&work));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("xtask serve-smoke: cannot create {}: {e}", work.display());
        return 1;
    }
    let grul = match mine_bench_corpus(root, &cli, &work) {
        Ok(grul) => grul,
        Err(code) => return code,
    };

    let mut summaries = Vec::new();
    for shards in ["1", "4"] {
        eprintln!("xtask serve-smoke: serving at {shards} shard(s)");
        let metrics = work.join(format!("metrics-{shards}.json"));
        let (mut server, addr, _stdout) =
            match spawn_server(root, &cli, &grul, shards, &metrics, "serve-smoke") {
                Ok(tuple) => tuple,
                Err(code) => return code,
            };

        // Two identical seeded runs; the first also records the summary.
        let summary = work.join(format!("summary-{shards}.json"));
        for (run, transcript) in [("t1.bin", true), ("t2.bin", false)] {
            let mut cmd = Command::new(&load);
            cmd.current_dir(root)
                .args(["--addr", &addr, "--rules", p(&grul)])
                .args(["--queries", "200", "--seed", "42", "--shards-label", shards])
                .args(["--transcript", p(&work.join(run))]);
            if transcript {
                cmd.args(["--summary-out", p(&summary)]);
            }
            let code = run_echoed(&mut cmd);
            if code != 0 {
                drop(server.kill());
                return code;
            }
        }
        let (t1, t2) = (
            std::fs::read(work.join("t1.bin")).unwrap_or_default(),
            std::fs::read(work.join("t2.bin")).unwrap_or_default(),
        );
        if t1.is_empty() || t1 != t2 {
            eprintln!(
                "xtask serve-smoke: transcripts differ at {shards} shard(s) \
                 ({} vs {} bytes) — serving is not deterministic",
                t1.len(),
                t2.len()
            );
            drop(server.kill());
            return 1;
        }
        eprintln!(
            "xtask serve-smoke: transcripts byte-identical at {shards} shard(s) \
             ({} bytes)",
            t1.len()
        );

        let summary_json = std::fs::read_to_string(&summary).unwrap_or_default();
        match json_number(&summary_json, "qps") {
            Some(qps) if qps > 0.0 => {}
            other => {
                eprintln!("xtask serve-smoke: bad qps in summary: {other:?}");
                drop(server.kill());
                return 1;
            }
        }
        summaries.push(summary_json);

        let code = run_echoed(Command::new(&cli).current_dir(root).args([
            "query",
            "--addr",
            &addr,
            "--shutdown",
        ]));
        if code != 0 {
            drop(server.kill());
            return code;
        }
        match server.wait() {
            Ok(st) if st.success() => {}
            other => {
                eprintln!("xtask serve-smoke: server exited abnormally: {other:?}");
                return 1;
            }
        }
        let metrics_json = std::fs::read_to_string(&metrics).unwrap_or_default();
        if !metrics_json.contains("serve.queries{shard=") {
            eprintln!(
                "xtask serve-smoke: {} lacks per-shard query counters",
                metrics.display()
            );
            return 1;
        }
    }

    let baseline = format!(
        "{{\n  \"schema\": \"gar-serve-bench-v1\",\n  \"results\": [\n    {}\n  ]\n}}\n",
        summaries.join(",\n    ")
    );
    if let Err(e) = std::fs::write(&out_path, baseline) {
        eprintln!(
            "xtask serve-smoke: cannot write {}: {e}",
            out_path.display()
        );
        return 1;
    }
    eprintln!("xtask serve-smoke: wrote {}", out_path.display());
    0
}

/// Mines the serve-smoke corpus (the README walkthrough: R30F10 at
/// scale 0.001, seed 9 → rules at min-confidence 0.3) into `work`,
/// returning the rule-store path.
fn mine_bench_corpus(
    root: &Path,
    cli: &Path,
    work: &Path,
) -> std::result::Result<std::path::PathBuf, u8> {
    let data = work.join("data");
    let gtax = data.join("taxonomy.gtax");
    let gout = work.join("large.gout");
    let grul = work.join("rules.grul");
    for step in [
        vec![
            "gen",
            "--out",
            p(&data),
            "--preset",
            "R30F10",
            "--scale",
            "0.001",
            "--partitions",
            "2",
            "--seed",
            "9",
        ],
        vec![
            "mine",
            "--data",
            p(&data),
            "--min-support",
            "0.02",
            "--max-pass",
            "2",
            "--out",
            p(&gout),
        ],
        vec![
            "rules",
            "--output",
            p(&gout),
            "--taxonomy",
            p(&gtax),
            "--min-confidence",
            "0.3",
            "--out",
            p(&grul),
        ],
    ] {
        let code = run_echoed(Command::new(cli).current_dir(root).args(&step));
        if code != 0 {
            return Err(code);
        }
    }
    Ok(grul)
}

/// Spawns `gar-cli serve` and parses the announced address from its
/// first stdout line. Returns the child, the `host:port` string, and
/// the stdout reader — the caller must keep the reader alive until the
/// server exits, or its final status prints panic on a closed pipe.
fn spawn_server(
    root: &Path,
    cli: &Path,
    grul: &Path,
    shards: &str,
    metrics: &Path,
    tag: &str,
) -> std::result::Result<
    (
        std::process::Child,
        String,
        std::io::BufReader<std::process::ChildStdout>,
    ),
    u8,
> {
    let mut server = match Command::new(cli)
        .current_dir(root)
        .args([
            "serve",
            "--rules",
            p(grul),
            "--port",
            "0",
            "--shards",
            shards,
        ])
        .args(["--metrics-out", p(metrics)])
        .stdout(std::process::Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask {tag}: cannot spawn server: {e}");
            return Err(1);
        }
    };
    let mut first_line = String::new();
    let mut stdout = std::io::BufReader::new(server.stdout.take().unwrap());
    if stdout.read_line(&mut first_line).is_err() || !first_line.contains("serving") {
        eprintln!("xtask {tag}: server did not announce itself: {first_line:?}");
        drop(server.kill());
        return Err(1);
    }
    let Some(addr) = first_line
        .split_whitespace()
        .find(|tok| tok.contains(':'))
        .map(str::to_string)
    else {
        eprintln!("xtask {tag}: no address in {first_line:?}");
        drop(server.kill());
        return Err(1);
    };
    Ok((server, addr, stdout))
}

/// Lossy path → str for building CLI argument lists.
fn p(path: &Path) -> &str {
    path.to_str().unwrap_or_default()
}

/// Extracts `"key": <number>` from a flat JSON object without a parser.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Runs miri over the crates that contain `unsafe` (the model checker's
/// serialized `UnsafeCell` primitives) plus the cluster crate's unit
/// tests. Skips when the component is missing.
pub fn miri(root: &Path, args: &[String]) -> u8 {
    let mut version = Command::new("cargo");
    version
        .current_dir(root)
        .args(["+nightly", "miri", "--version"]);
    if !probe(version) {
        let msg = "xtask miri: `cargo +nightly miri` is not available \
                   (component not installed; this environment has no network). \
                   Install with `rustup +nightly component add miri` where possible.";
        if strict(args) {
            eprintln!("{msg}\nxtask miri: --strict set, failing");
            return 1;
        }
        eprintln!("{msg}\nxtask miri: skipping");
        return 0;
    }

    run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .args([
                "+nightly",
                "miri",
                "test",
                "-p",
                "gar-modelcheck",
                "-p",
                "gar-cluster",
                "--lib",
            ])
            .args(passthrough(args)),
    )
}

/// Runs the cluster test suite under ThreadSanitizer. Needs nightly
/// (`-Z build-std`) and the `rust-src` component; skips when missing.
pub fn tsan(root: &Path, args: &[String]) -> u8 {
    let host = host_triple(root);
    let sysroot_src = nightly_sysroot(root).map(|s| {
        Path::new(&s)
            .join("lib")
            .join("rustlib")
            .join("src")
            .join("rust")
            .join("library")
    });
    let available = matches!((&host, &sysroot_src), (Some(_), Some(p)) if p.is_dir());
    if !available {
        let msg = "xtask tsan: nightly rust-src (for -Z build-std) is not available \
                   (this environment has no network). \
                   Install with `rustup +nightly component add rust-src` where possible.";
        if strict(args) {
            eprintln!("{msg}\nxtask tsan: --strict set, failing");
            return 1;
        }
        eprintln!("{msg}\nxtask tsan: skipping");
        return 0;
    }
    let host = host.unwrap();

    let mut rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    if !rustflags.is_empty() {
        rustflags.push(' ');
    }
    rustflags.push_str("-Z sanitizer=thread");

    run_echoed(
        Command::new("cargo")
            .current_dir(root)
            .env("RUSTFLAGS", &rustflags)
            .args([
                "+nightly",
                "test",
                "-Z",
                "build-std",
                "--target",
                &host,
                "-p",
                "gar-cluster",
                "--target-dir",
                "target/tsan",
            ])
            .args(passthrough(args)),
    )
}

fn host_triple(root: &Path) -> Option<String> {
    let out = Command::new("rustc")
        .current_dir(root)
        .args(["+nightly", "-vV"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("host: ").map(str::to_string))
}

fn nightly_sysroot(root: &Path) -> Option<String> {
    let out = Command::new("rustc")
        .current_dir(root)
        .args(["+nightly", "--print", "sysroot"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()
        .map(|s| s.trim().to_string())
}
