//! `cargo xtask loc` — the non-test line count the simplicity PRs are
//! held to, per package and in total.
//!
//! A file's count is the number of lines before the first line that
//! *starts with* `#[cfg(test)]` (its unit-test module; the whole file if
//! it has none), comments and blanks included. Counted: every `.rs` file
//! under the `src/` directory of each workspace package (`crates/*`,
//! `compat/*`, `xtask`, the root package) plus the root package's
//! `examples/`. Not counted: `tests/` and the separate `benchmark/`
//! package. This is the figure PR 14 computed by hand
//! (23,749 at that commit).

use std::path::{Path, PathBuf};

/// Lines of `text` before its unit-test module.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .count()
}

/// Sum of [`non_test_lines`] over every `.rs` file under `dir`.
fn count_dir(dir: &Path) -> std::io::Result<usize> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(0); // a package without this directory
    };
    let mut total = 0;
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            total += count_dir(&path)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += non_test_lines(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

/// The packages under `root/group`, sorted by name.
fn packages(root: &Path, group: &str) -> std::io::Result<Vec<PathBuf>> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(group))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    Ok(dirs)
}

fn report(root: &Path) -> std::io::Result<()> {
    let mut rows = vec![(
        ". (src + examples)".to_string(),
        count_dir(&root.join("src"))? + count_dir(&root.join("examples"))?,
    )];
    for group in ["crates", "compat"] {
        for dir in packages(root, group)? {
            let name = dir.strip_prefix(root).unwrap_or(&dir).display().to_string();
            rows.push((name, count_dir(&dir.join("src"))?));
        }
    }
    rows.push(("xtask".to_string(), count_dir(&root.join("xtask/src"))?));

    println!("non-test Rust lines (before each file's first `#[cfg(test)]`):");
    for (name, lines) in &rows {
        println!("  {name:<24} {lines:>6}");
    }
    let total: usize = rows.iter().map(|(_, n)| n).sum();
    println!("  {:<24} {total:>6}", "total");
    Ok(())
}

pub fn run(root: &Path) -> u8 {
    match report(root) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("loc: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::non_test_lines;

    #[test]
    fn counts_up_to_the_unit_test_module_only() {
        let src = "//! doc\nfn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 3);
        // An indented `#[cfg(test)]` gates one item inside non-test
        // code; it does not end the count.
        assert_eq!(
            non_test_lines("mod a {\n    #[cfg(test)]\n    fn t() {}\n}\n"),
            4
        );
        assert_eq!(non_test_lines(""), 0);
    }
}
