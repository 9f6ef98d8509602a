//! Repo automation, invoked as `cargo xtask <command>` (see
//! `.cargo/config.toml` for the alias).
//!
//! * `loom` — model-checks the cluster collectives and the serve-layer
//!   epoch cell: the checker's own tests, then the two suites that
//!   include those source files on the `gar-modelcheck` virtual
//!   primitives (`cargo test` runs them as well).
//! * `chaos` — seeded fault-injection soak over the mining runtime
//!   (tolerated schedules must leave the output byte-identical).
//! * `serve-chaos` — seeded fault-injection soak over the serving layer
//!   (shard panics, connection resets, corrupt hot-swaps, overload
//!   bursts; `GAR_SERVE_CHAOS_SEEDS` pins the seed matrix).
//! * `ci` — runs the whole CI job sequence locally, in the same order
//!   as `.github/workflows/ci.yml`, stopping at the first failure.
//! * `figures` — regenerates the paper's figures with `gar-bench` and
//!   fails on any change under `results/`.
//! * `loc` — prints the non-test line count per package and in total
//!   (lines before each file's first `#[cfg(test)]`), the figure the
//!   simplicity PRs are measured by.
//! * `miri` — runs the UB interpreter over the unsafe-bearing crates
//!   when the `miri` component is installed; degrades to a skip
//!   otherwise (this build environment has no network to install it).
//! * `tsan` — ThreadSanitizer over the cluster tests when nightly +
//!   `rust-src` are available; degrades to a skip otherwise.
//!
//! The static rules are clippy's (`clippy.toml`, `[workspace.lints]`),
//! except `relaxed`, which is a unit test of this crate (`relaxed.rs`).

use std::path::PathBuf;
use std::process::ExitCode;

mod loc;
mod runners;

fn usage() -> &'static str {
    "usage: cargo xtask <command>\n\
     \n\
     commands:\n\
       ci            run the full CI job sequence locally (fmt, clippy,\n\
                     release build, test, examples, benchmark self-tests\n\
                     + one short checked run, figures, loc, loom,\n\
                     chaos, serve-chaos)\n\
       loom          model-check the cluster collectives and the serve\n\
                     epoch cell (the checker's own tests first)\n\
       chaos         seeded fault-injection soak (GAR_CHAOS_ITERS scales it)\n\
       serve-chaos   seeded serve-layer fault soak (GAR_SERVE_CHAOS_SEEDS\n\
                     pins the seed matrix)\n\
       figures [NAME…]   regenerate figures (default all) and fail on any\n\
                     change under results/ (GAR_* pass through)\n\
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
        "ci" => runners::ci(&repo_root(), rest),
        "loom" => runners::loom(&repo_root(), rest),
        "chaos" => runners::chaos(&repo_root(), rest),
        "serve-chaos" => runners::serve_chaos(&repo_root(), rest),
        "figures" => runners::figures(&repo_root(), rest),
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

#[cfg(test)]
mod relaxed;
