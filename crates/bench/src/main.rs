//! `gar-bench [NAME…|all]`: regenerates the named figures (`all` for
//! every one), in the order of [`FIGURES`]. Each is printed aligned and
//! written row for row to `<GAR_RESULTS_DIR>/<NAME>.csv`. Exit 2 on an
//! unknown name or an unusable environment variable, 1 on a failed run.

use gar_bench::figures::FIGURES;
use gar_bench::{write_csv, Env};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |a: &String| a == "all" || FIGURES.iter().any(|(n, _)| a == n);
    if names.is_empty() || !names.iter().all(known) {
        let list: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        eprintln!("usage: gar-bench [NAME…|all]\nfigures: {}", list.join(" "));
        return ExitCode::from(2);
    }
    let env = Env::load();
    for (name, figure) in FIGURES {
        if !names.iter().any(|a| a == "all" || a == name) {
            continue;
        }
        println!("=== {name} (scale {}, seed {}) ===", env.scale, env.seed);
        let written = figure(&env).and_then(|table| {
            print!("{}", table.aligned());
            write_csv(&env, name, &table)
        });
        match written {
            Ok(path) => println!("  [written {}]\n", path.display()),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
