//! Process-spawning subcommands: loom model checking, the chaos soaks,
//! the local CI sequence, miri and tsan.
//!
//! miri and tsan require toolchain components this build environment may
//! not have (there is no network to install them). Both probe first and
//! skip with an explanation when unavailable; `--strict` turns a skip
//! into a failure so CI environments that *do* have the components can
//! enforce them.

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

/// Model-checks the cluster collectives and the serve-layer epoch cell:
/// the checker's own tests first, so a broken checker cannot vacuously
/// pass the suites, then the two suites. Each suite includes its
/// primitive's source file on the checker's virtual primitives; both are
/// ordinary integration tests, so `cargo test` runs them too.
pub fn loom(root: &Path, args: &[String]) -> u8 {
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
                .args(["test", "-q", "-p", pkg, "--test", suite])
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

/// The workflow's examples step: runs every `examples/*.rs` in release
/// mode, stopping at the first failure. `cargo test` compiles the
/// examples but never runs them, so this is what checks their asserts.
const RUN_EXAMPLES: &str = r#"set -e
for ex in examples/*.rs; do
  cargo run --release --quiet --example "$(basename "$ex" .rs)"
done"#;

/// Regenerates the named figures (all by default) with `gar-bench`, then
/// fails if `git status` shows anything under the results directory. The
/// tracked CSVs there are deleted first, so a moved number, a missing CSV
/// and a stray file (committed or not) all turn it red; the names must
/// cover that directory. `GAR_SCALE` and `GAR_RESULTS_DIR` pass through,
/// so nightly gates `results/scale-0.1/`.
pub fn figures(root: &Path, args: &[String]) -> u8 {
    const GATE: &str = r#"[ $# -gt 0 ] || set -- all
dir=${GAR_RESULTS_DIR:-results}
git ls-files -z -- ":(glob)$dir/*.csv" | xargs -0 rm -f
cargo run --release --quiet -p gar-bench -- "$@" || exit
changed=$(git status --porcelain -- "$dir") || exit
[ -z "$changed" ] || { printf '%s differs from HEAD:\n%s\n' "$dir" "$changed"; exit 1; }"#;
    let sh = ["-c", GATE, "figures"];
    run_echoed(Command::new("sh").current_dir(root).args(sh).args(args))
}

/// Runs the CI job sequence locally, in the same order the workflow
/// does: format + clippy, the release build, the tests, the examples,
/// the benchmark harness's self-tests and one short checked benchmark
/// run, the figures gate, the non-test line count, loom, chaos and
/// serve-chaos. Stops at the first failing job so the console ends at the
/// same place the CI log would. `cargo xtask ci` before pushing ≈ a green run.
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
        ("build (release)", &|| {
            run_echoed(
                Command::new("cargo")
                    .current_dir(root)
                    .args(["build", "--release"]),
            )
        }),
        ("test", &|| {
            run_echoed(Command::new("cargo").current_dir(root).args(["test", "-q"]))
        }),
        ("examples", &|| {
            run_echoed(
                Command::new("sh")
                    .current_dir(root)
                    .args(["-c", RUN_EXAMPLES]),
            )
        }),
        ("benchmark self-tests", &|| {
            run_echoed(Command::new("cargo").current_dir(root).args([
                "test",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
            ]))
        }),
        // One short checked run; it exits 0 only when its result line
        // reads `"correct":true`.
        ("benchmark smoke", &|| {
            run_echoed(
                Command::new("cargo")
                    .current_dir(root)
                    .args(["run", "--release", "--offline", "--manifest-path"])
                    .args(["benchmark/Cargo.toml", "--", "--workload", "cumulate-seq"])
                    .args(["--seed", "1", "--seconds", "3", "--trace", "0"]),
            )
        }),
        ("figures", &|| figures(root, &[])),
        ("loc", &|| crate::loc::run(root)),
        ("loom", &|| loom(root, &[])),
        ("chaos", &|| chaos(root, &[])),
        ("serve-chaos", &|| serve_chaos(root, &[])),
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
