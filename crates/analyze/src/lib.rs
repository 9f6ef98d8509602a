//! gar-analyze: zero-dependency, token/flow-aware static analysis for
//! this workspace.
//!
//! Pipeline: [`lexer`] turns each file into a token stream plus
//! *sanitized code lines* (string/char literals blanked, comments
//! stripped, line numbers preserved exactly); [`source`] layers block
//! structure, `#[cfg(test)]` regions, function spans and per-function
//! call names on top; [`callgraph`] links every file's functions into a
//! name-resolved call graph; [`rules`] runs the catalog — six line
//! rules ported from the old `xtask lint` pass, four flow-aware rules
//! (`det-taint`, `panic-path`, `lock-blocking`, `unsafe-audit`) and the
//! one rule about test code (`test-sleep`).
//!
//! Driven by `cargo xtask analyze` (baseline-aware, `--check` for CI).

pub mod callgraph;
pub mod lexer;
pub mod rules;
pub mod source;

use callgraph::{CallGraph, CrateDeps};
use rules::FlowContext;
use source::SourceFile;
use std::fmt;
use std::path::Path;

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl Finding {
    /// The stable identity used by the baseline file: `file:line:rule`.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Result of an analysis run.
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub fns_indexed: usize,
}

/// Analyzes a set of in-memory `(relative_path, source)` files as one
/// workspace — the API the golden/fixture tests use, and the only way
/// cross-file rules can be exercised hermetically.
pub fn analyze_sources(files: &[(&str, &str)]) -> Vec<Finding> {
    let parsed: Vec<SourceFile> = files
        .iter()
        .map(|(rel, src)| SourceFile::parse(rel, src))
        .collect();
    // In-memory fixtures have no manifests: name resolution is allowed
    // to cross any crate boundary.
    let graph = CallGraph::build(&parsed, &CrateDeps::default());
    let flow = FlowContext::build(&graph);
    let mut findings = Vec::new();
    for sf in &parsed {
        findings.extend(rules::check_file(sf, &graph, &flow));
    }
    sort_findings(&mut findings);
    findings
}

/// Single-file convenience wrapper around [`analyze_sources`].
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    analyze_sources(&[(rel, src)])
}

/// Analyzes every `crates/*/src/**/*.rs` and `crates/*/tests/**/*.rs`
/// under `root` (the latter are test code from the first line to the
/// last, so only `test-sleep` can fire in them).
pub fn analyze_root(root: &Path) -> Result<Analysis, String> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut crate_dirs: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut deps = CrateDeps::default();
    for dir in &crate_dirs {
        collect_rs_files(&dir.join("src"), true, &mut paths)?;
        // Integration-test roots only: `tests/fixtures/` holds inputs,
        // not code that runs.
        collect_rs_files(&dir.join("tests"), false, &mut paths)?;
        if let (Some(name), Ok(manifest)) = (
            dir.file_name().map(|n| n.to_string_lossy().into_owned()),
            std::fs::read_to_string(dir.join("Cargo.toml")),
        ) {
            deps.add_manifest(&name, &manifest);
        }
    }
    deps.close();
    paths.sort();

    let mut parsed = Vec::new();
    for path in &paths {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        parsed.push(SourceFile::parse(&rel, &src));
    }

    let graph = CallGraph::build(&parsed, &deps);
    let flow = FlowContext::build(&graph);
    let mut findings = Vec::new();
    for sf in &parsed {
        findings.extend(rules::check_file(sf, &graph, &flow));
    }
    sort_findings(&mut findings);
    Ok(Analysis {
        findings,
        files_scanned: parsed.len(),
        fns_indexed: graph.nodes.len(),
    })
}

fn collect_rs_files(
    dir: &Path,
    recurse: bool,
    out: &mut Vec<std::path::PathBuf>,
) -> Result<(), String> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // a crate without src/ (or a non-crate dir) is fine
    };
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        if path.is_dir() {
            if recurse {
                collect_rs_files(&path, recurse, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn sort_findings(findings: &mut Vec<Finding>) {
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    // One line can trip the same rule twice (e.g. an unwrap and an
    // index on one line, both panic-path); report it once.
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}

// ---------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------

/// A checked-in list of accepted findings (`file:line:rule` per line;
/// `#` comments and blanks ignored). The intent is an *empty* baseline:
/// entries are a temporary parking lot while a violation is being
/// fixed, not a long-term suppression mechanism (that's what
/// `// lint:allow(rule): reason` is for — it carries a reason and moves
/// with the code).
#[derive(Default)]
pub struct Baseline {
    entries: Vec<String>,
}

impl Baseline {
    pub fn parse(text: &str) -> Baseline {
        Baseline {
            entries: text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect(),
        }
    }

    /// Loads `path`; a missing file is an empty baseline.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Ok(Baseline::parse(&text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
            Err(e) => Err(format!("reading {}: {e}", path.display())),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits findings into (new, baselined) and reports stale baseline
    /// entries that no longer match any finding.
    pub fn apply(&self, findings: Vec<Finding>) -> BaselineOutcome {
        let mut new = Vec::new();
        let mut baselined = Vec::new();
        let mut hit = vec![false; self.entries.len()];
        for f in findings {
            let key = f.key();
            match self.entries.iter().position(|e| *e == key) {
                Some(i) => {
                    hit[i] = true;
                    baselined.push(f);
                }
                None => new.push(f),
            }
        }
        let stale = self
            .entries
            .iter()
            .zip(&hit)
            .filter(|(_, h)| !**h)
            .map(|(e, _)| e.clone())
            .collect();
        BaselineOutcome {
            new,
            baselined,
            stale,
        }
    }
}

/// What the baseline did to a finding list.
pub struct BaselineOutcome {
    /// Findings not covered by the baseline — these fail `--check`.
    pub new: Vec<Finding>,
    /// Findings matched (and silenced) by a baseline entry.
    pub baselined: Vec<Finding>,
    /// Baseline entries that matched nothing: the violation was fixed
    /// (or moved) and the entry should be deleted.
    pub stale: Vec<String>,
}

// ---------------------------------------------------------------------
// JSON report (schema `gar-analyze-v1`) — hand-rolled, zero-dep.
// ---------------------------------------------------------------------

/// Serializes a run as the `gar-analyze-v1` JSON document consumed by
/// the CI artifact step.
pub fn to_json(analysis: &Analysis, outcome: &BaselineOutcome) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"gar-analyze-v1\",\n");
    s.push_str(&format!(
        "  \"files_scanned\": {},\n  \"functions_indexed\": {},\n",
        analysis.files_scanned, analysis.fns_indexed
    ));
    s.push_str("  \"rules\": [\n");
    for (i, r) in rules::CATALOG.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"legacy\": {}, \"summary\": {}}}{}\n",
            json_str(r.name),
            r.legacy,
            json_str(r.summary),
            comma(i, rules::CATALOG.len())
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"findings\": [\n");
    let total = outcome.new.len() + outcome.baselined.len();
    let mut emitted = 0;
    for (list, baselined) in [(&outcome.new, false), (&outcome.baselined, true)] {
        for f in list.iter() {
            s.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"baselined\": {}, \"msg\": {}}}{}\n",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                baselined,
                json_str(&f.msg),
                comma(emitted, total)
            ));
            emitted += 1;
        }
    }
    s.push_str("  ],\n");
    s.push_str("  \"baseline\": {\n");
    s.push_str(&format!(
        "    \"applied\": {},\n    \"stale\": [",
        outcome.baselined.len()
    ));
    for (i, e) in outcome.stale.iter().enumerate() {
        s.push_str(&format!("{}{}", json_str(e), comma(i, outcome.stale.len())));
    }
    s.push_str("]\n  }\n}\n");
    s
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_parse_skips_comments_and_blanks() {
        let b = Baseline::parse("# header\n\ncrates/a/src/lib.rs:3:wait-loop\n");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn baseline_apply_splits_and_reports_stale() {
        let b = Baseline::parse("crates/a/src/lib.rs:3:wait-loop\ncrates/gone.rs:1:relaxed\n");
        let findings = vec![
            Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 3,
                rule: "wait-loop",
                msg: String::new(),
            },
            Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 9,
                rule: "relaxed",
                msg: String::new(),
            },
        ];
        let out = b.apply(findings);
        assert_eq!(out.new.len(), 1);
        assert_eq!(out.new[0].line, 9);
        assert_eq!(out.baselined.len(), 1);
        assert_eq!(out.stale, vec!["crates/gone.rs:1:relaxed".to_string()]);
    }

    #[test]
    fn json_escapes_and_is_wellformed_enough() {
        let analysis = Analysis {
            findings: Vec::new(),
            files_scanned: 2,
            fns_indexed: 7,
        };
        let outcome = BaselineOutcome {
            new: vec![Finding {
                file: "crates/a/src/lib.rs".into(),
                line: 1,
                rule: "relaxed",
                msg: "needs a \"reason\"\twith escapes".into(),
            }],
            baselined: Vec::new(),
            stale: Vec::new(),
        };
        let json = to_json(&analysis, &outcome);
        assert!(json.contains("\"schema\": \"gar-analyze-v1\""));
        assert!(json.contains("\\\"reason\\\"\\twith"));
        assert!(json.contains("\"files_scanned\": 2"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn analyze_source_runs_the_pipeline_end_to_end() {
        let findings = analyze_source(
            "crates/x/src/lib.rs",
            "fn f(cv: &Condvar, g: G) {\n    let _ = cv.wait(g);\n}\n",
        );
        assert!(
            findings.iter().any(|f| f.rule == "wait-loop"),
            "{findings:?}"
        );
    }
}
