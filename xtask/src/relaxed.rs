//! The one static rule clippy cannot express: every `Ordering::Relaxed`
//! in the library code of `crates/*` carries a `// relaxed: <why>`
//! comment on its line or in the lines just above. The model checker
//! explores sequentially consistent interleavings only (DESIGN.md §7),
//! so a weak ordering is the one choice no other check here can see.
//!
//! A raw-line scan: `//` lines never count as a use, and each file is
//! read only up to its unit-test module, the way `cargo xtask loc`
//! counts it.

use crate::loc::{for_each_rs, non_test_part, packages};

/// How far above a use its `relaxed:` comment may sit.
const WINDOW: usize = 12;

/// The 1-based lines of `text` that use `Ordering::Relaxed` with no
/// `relaxed:` comment within [`WINDOW`] lines above.
fn unjustified(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = non_test_part(text).collect();
    let justified = |i: usize| {
        lines[i.saturating_sub(WINDOW)..=i]
            .iter()
            .any(|l| l.to_ascii_lowercase().contains("relaxed:"))
    };
    (0..lines.len())
        .filter(|&i| !lines[i].trim_start().starts_with("//"))
        .filter(|&i| lines[i].contains("Ordering::Relaxed") && !justified(i))
        .map(|i| i + 1)
        .collect()
}

#[test]
fn every_relaxed_ordering_is_justified() {
    let root = crate::repo_root();
    let mut findings = Vec::new();
    for package in packages(&root, "crates").unwrap() {
        for_each_rs(&package.join("src"), &mut |path, text| {
            for line in unjustified(text) {
                findings.push(format!("{}:{line}", path.display()));
            }
        })
        .unwrap();
    }
    assert!(
        findings.is_empty(),
        "Ordering::Relaxed without a `// relaxed: <why>` comment within {WINDOW} lines \
         above:\n{}",
        findings.join("\n")
    );
}

#[test]
fn flags_a_bare_relaxed_and_accepts_a_justified_one() {
    let bare = "use std::sync::atomic::{AtomicU64, Ordering};\n\
                pub fn bump(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert_eq!(unjustified(bare), [3]);
    let justified = "pub fn bump(c: &AtomicU64) {\n    \
                     // relaxed: advisory counter, no ordering needed\n    \
                     c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert!(unjustified(justified).is_empty());
    let far = format!(
        "// relaxed: too far\n{}c.load(Ordering::Relaxed);\n",
        "\n".repeat(WINDOW)
    );
    assert_eq!(unjustified(&far), [WINDOW + 2]);
}

#[test]
fn ignores_comment_lines_and_the_test_module() {
    let text = "/// Uses `Ordering::Relaxed` nowhere.\n\
                // Ordering::Relaxed in a comment\n\
                #[cfg(test)]\n\
                mod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
    assert!(unjustified(text).is_empty());
}
