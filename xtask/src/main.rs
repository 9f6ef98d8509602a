//! Repo automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! * `analyze` — the in-repo static analysis pass, the full
//!   `gar-analyze` catalog: the line rules (concurrency and determinism
//!   rules the stock toolchain cannot express, run on a real lexer so
//!   string literals and comments can never trigger them) plus the
//!   flow-aware `panic-path`, `lock-blocking` and `unsafe-audit` rules,
//!   filtered through the checked-in `ANALYZE_BASELINE.txt`.
//! * `loom` — model-checks the cluster collectives and the serve-layer
//!   epoch cell by rebuilding them on the `gar-modelcheck` virtual
//!   primitives (`--cfg gar_loom`).
//! * `chaos` — seeded fault-injection soak over the mining runtime
//!   (tolerated schedules must leave the output byte-identical).
//! * `serve-chaos` — seeded fault-injection soak over the serving layer
//!   (shard panics, connection resets, corrupt hot-swaps, overload
//!   bursts; `GAR_SERVE_CHAOS_SEEDS` pins the seed matrix).
//! * `bench` — the perf-regression gate: runs the pinned smoke matrix
//!   (see `crates/bench/src/bin/bench_gate.rs`) and, with `--check`,
//!   compares modeled execution times against the committed
//!   `BENCH_PR10.json` baseline; `--gate-wall` additionally gates
//!   wall-clock/modeled ratios (absolute 1.5× ceiling at 8 nodes plus
//!   a per-entry ratchet against the baseline's recorded ratios).
//! * `ci` — runs the whole CI job sequence locally, in the same order
//!   as `.github/workflows/ci.yml`, stopping at the first failure.
//! * `serve-smoke` — the serving-layer smoke: mine a tiny dataset,
//!   persist the rule store, serve it at 1 and 4 shards, drive it with
//!   the seeded `serve_load` generator, and assert byte-identical
//!   response transcripts plus per-shard metrics (see
//!   `crates/bench/src/bin/serve_load.rs`).
//! * `loc` — prints the non-test line count per package and in total
//!   (lines before each file's first `#[cfg(test)]`), the figure the
//!   simplicity PRs are measured by.
//! * `miri` — runs the UB interpreter over the unsafe-bearing crates
//!   when the `miri` component is installed; degrades to a skip
//!   otherwise (this build environment has no network to install it).
//! * `tsan` — ThreadSanitizer over the cluster tests when nightly +
//!   `rust-src` are available; degrades to a skip otherwise.

use std::path::PathBuf;
use std::process::ExitCode;

mod analyze;
mod loc;
mod runners;

fn usage() -> &'static str {
    "usage: cargo xtask <command>\n\
     \n\
     commands:\n\
       ci            run the full CI job sequence locally (fmt, clippy,\n\
                     analyze, test, loom, chaos, serve-chaos,\n\
                     bench --check --gate-wall, serve-smoke)\n\
       analyze [--check] [--json FILE]\n\
                     run the full gar-analyze catalog; --check is CI mode\n\
                     (baseline-gated: new findings and stale baseline\n\
                     entries both fail); --json writes a gar-analyze-v1\n\
                     report\n\
       loom          model-check the cluster collectives and the serve\n\
                     epoch cell (--cfg gar_loom)\n\
       chaos         seeded fault-injection soak (GAR_CHAOS_ITERS scales it)\n\
       serve-chaos   seeded serve-layer fault soak (GAR_SERVE_CHAOS_SEEDS\n\
                     pins the seed matrix)\n\
       bench [--check] [--gate-wall] [--tolerance F] [--out FILE]\n\
                     run the pinned smoke matrix; --check gates modeled\n\
                     times against the committed BENCH_PR10.json,\n\
                     --gate-wall additionally gates wall/modeled ratios\n\
       serve-smoke [--out FILE]\n\
                     mine → persist → serve → load-test; asserts deterministic\n\
                     transcripts and writes a gar-serve-bench-v1 baseline\n\
       loc           non-test Rust lines per package and in total\n\
       miri [--strict]   run miri over unsafe-bearing crates (skip if unavailable)\n\
       tsan [--strict]   run ThreadSanitizer over cluster tests (skip if unavailable)\n\
     \n\
     --strict makes miri/tsan fail instead of skip when the toolchain\n\
     component is missing."
}

/// Workspace root: xtask always lives directly under it.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{}", usage());
            // Usage errors are 2; 1 is reserved for "findings/failures".
            return ExitCode::from(2);
        }
    };
    let code = match cmd {
        "analyze" => analyze::run(&repo_root(), rest),
        "ci" => runners::ci(&repo_root(), rest),
        "loom" => runners::loom(&repo_root(), rest),
        "chaos" => runners::chaos(&repo_root(), rest),
        "serve-chaos" => runners::serve_chaos(&repo_root(), rest),
        "bench" => runners::bench(&repo_root(), rest),
        "serve-smoke" => runners::serve_smoke(&repo_root(), rest),
        "loc" => loc::run(&repo_root()),
        "miri" => runners::miri(&repo_root(), rest),
        "tsan" => runners::tsan(&repo_root(), rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            0
        }
        other => {
            eprintln!("unknown command `{other}`\n\n{}", usage());
            2
        }
    };
    ExitCode::from(code)
}
