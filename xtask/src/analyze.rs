//! Driver for the gar-analyze static-analysis pass.
//!
//! `cargo xtask analyze [--check] [--json FILE]` runs the full catalog,
//! filtered through the checked-in `ANALYZE_BASELINE.txt`. `--check`
//! is CI mode: any finding not in the baseline fails the run, and so
//! does a stale baseline entry (so the file can only shrink toward
//! empty). `--json` writes the `gar-analyze-v1` report consumed by
//! the CI artifact upload.
//!
//! Exit codes: 0 clean, 1 findings, 2 internal/usage error.

use gar_analyze::{analyze_root, Analysis, Baseline, BaselineOutcome};
use std::path::Path;

const BASELINE_FILE: &str = "ANALYZE_BASELINE.txt";

pub fn run(root: &Path, args: &[String]) -> u8 {
    let mut check = false;
    let mut json_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => match it.next() {
                Some(path) => json_out = Some(path.clone()),
                None => {
                    eprintln!("analyze: --json needs a file argument");
                    return 2;
                }
            },
            other => {
                eprintln!("analyze: unknown argument `{other}` (expected --check / --json FILE)");
                return 2;
            }
        }
    }

    let analysis = match analyze_root(root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 2;
        }
    };
    let baseline = match Baseline::load(&root.join(BASELINE_FILE)) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("analyze: {e}");
            return 2;
        }
    };
    let outcome = baseline.apply(analysis.findings.clone());

    if let Some(path) = &json_out {
        let json = gar_analyze::to_json(&analysis, &outcome);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("analyze: writing {path}: {e}");
            return 2;
        }
        println!("analyze: wrote JSON report to {path}");
    }

    report(&analysis, &outcome, check)
}

fn report(analysis: &Analysis, outcome: &BaselineOutcome, check: bool) -> u8 {
    for f in &outcome.new {
        println!("{f}");
    }
    if !outcome.baselined.is_empty() {
        println!(
            "analyze: {} finding(s) suppressed by {BASELINE_FILE}",
            outcome.baselined.len()
        );
    }
    for stale in &outcome.stale {
        println!(
            "analyze: stale baseline entry `{stale}` (no longer matches a finding — delete it)"
        );
    }
    summarize(analysis, outcome.new.len());

    let stale_fails = check && !outcome.stale.is_empty();
    if stale_fails {
        println!(
            "analyze: --check treats stale baseline entries as failures so \
             {BASELINE_FILE} only shrinks toward empty"
        );
    }
    u8::from(!outcome.new.is_empty() || stale_fails)
}

fn summarize(analysis: &Analysis, reported: usize) {
    if reported == 0 {
        println!(
            "analyze: clean — {} file(s), {} function(s) indexed",
            analysis.files_scanned, analysis.fns_indexed
        );
    } else {
        println!(
            "analyze: {reported} finding(s) in {} file(s) scanned \
             (suppress with `// lint:allow(<rule>): <reason>` where justified)",
            analysis.files_scanned
        );
    }
}
