//! `cargo xtask loc` — the non-test line count the simplicity PRs are
//! held to, per package and in total.
//!
//! A file's count is the number of lines before its unit-test module:
//! the first line that *starts with* `#[cfg(test)]` and whose item,
//! past any further attributes, is a `mod` (the whole file if it has
//! none), comments and blanks included. A `#[cfg(test)]` on a `fn` or
//! `use` gates one item of the non-test code and does not end the count. Counted: every `.rs` file
//! under the `src/` directory of each workspace package (`crates/*`,
//! `compat/*`, `xtask`, the root package) plus the root package's
//! `examples/`. Not counted: `tests/` and the separate `benchmark/`
//! package. This is the figure PR 14 computed by hand
//! (23,749 at that commit).

use std::path::{Path, PathBuf};

/// The lines of `text` before its unit-test module.
pub(crate) fn non_test_part(text: &str) -> impl Iterator<Item = &str> {
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].starts_with("#[cfg(test)]") && item_line(&lines[i..]).is_some_and(is_mod)
        })
        .unwrap_or(lines.len());
    text.lines().take(end)
}

/// The first line of `lines` that is not part of an attribute; an
/// attribute may span several lines, like a multi-line `#[expect(…)]`.
fn item_line<'a>(lines: &[&'a str]) -> Option<&'a str> {
    let mut depth = 0;
    lines.iter().copied().find(|l| {
        if depth == 0 && !l.trim_start().starts_with("#[") {
            return true;
        }
        depth += l.matches('[').count() as isize - l.matches(']').count() as isize;
        false
    })
}

/// Whether `line` declares a module.
fn is_mod(line: &str) -> bool {
    let line = line.trim_start();
    let line = ["pub(crate) ", "pub "]
        .iter()
        .find_map(|vis| line.strip_prefix(vis))
        .unwrap_or(line);
    line.starts_with("mod ")
}

/// Calls `f` with the path and text of every `.rs` file under `dir`.
pub(crate) fn for_each_rs(dir: &Path, f: &mut impl FnMut(&Path, &str)) -> std::io::Result<()> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Ok(()); // a package without this directory
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            for_each_rs(&path, f)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            f(&path, &std::fs::read_to_string(&path)?);
        }
    }
    Ok(())
}

/// Non-test lines of every `.rs` file under `dir`, summed.
fn count_dir(dir: &Path) -> std::io::Result<usize> {
    let mut total = 0;
    for_each_rs(dir, &mut |_, text| total += non_test_part(text).count())?;
    Ok(total)
}

/// The packages under `root/group`, sorted by name.
pub(crate) fn packages(root: &Path, group: &str) -> std::io::Result<Vec<PathBuf>> {
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

    println!("non-test Rust lines (before each file's `#[cfg(test)]` module):");
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
    use super::non_test_part;

    #[test]
    fn counts_up_to_the_unit_test_module_only() {
        let src = "//! doc\nfn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_part(src).count(), 3);
        // An indented `#[cfg(test)]` gates one item inside non-test
        // code; it does not end the count.
        assert_eq!(
            non_test_part("mod a {\n    #[cfg(test)]\n    fn t() {}\n}\n").count(),
            4
        );
        assert_eq!(non_test_part("").count(), 0);
        // A column-0 `#[cfg(test)]` on a `fn` is non-test code's too: the
        // count runs on to the module.
        let src = "fn a() {}\n#[cfg(test)]\nfn t() {}\nfn b() {}\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(non_test_part(src).count(), 4);
        // Attributes between `#[cfg(test)]` and its `mod`, one spanning
        // lines, still end the count at the `#[cfg(test)]`.
        let src = "fn a() {}\n#[cfg(test)]\n#[cfg(unix)]\n#[expect(\n    clippy::x,\n    \
                   reason = \"y\"\n)]\npub(crate) mod tests {}\n";
        assert_eq!(non_test_part(src).count(), 1);
    }
}
