//! `cargo xtask loc` — the non-test line count the simplicity PRs are
//! held to, per package and in total.
//!
//! A file's count is the number of lines before its unit-test module:
//! the first line that *starts with* `#[cfg(test)]` and whose item,
//! past any further attributes, is a `mod` (the whole file if it has
//! none), comments and blanks included. A `#[cfg(test)]` on a `fn` or
//! `use` gates one item of the non-test code and does not end the count.
//! Counted: every `.rs` file under the `src/` directory of each
//! workspace package (`crates/*`, `compat/*`, `xtask`, the root package)
//! plus the root package's `examples/`, except a file that only test
//! code declares — a `mod x;` in another file's unit-test part (say
//! `#[cfg(test)] mod x;`), or any `mod x;` in such a file. Not counted:
//! `tests/` and the separate `benchmark/` package.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The lines of `text` before its unit-test module.
pub(crate) fn non_test_part(text: &str) -> impl Iterator<Item = &str> {
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].starts_with("#[cfg(test)]")
                && item_line(&lines[i..]).and_then(mod_item).is_some()
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

/// `line` from its `mod` keyword on, when it declares a module.
fn mod_item(line: &str) -> Option<&str> {
    let line = line.trim_start();
    let line = ["pub(crate) ", "pub "]
        .iter()
        .find_map(|vis| line.strip_prefix(vis))
        .unwrap_or(line);
    line.starts_with("mod ").then_some(line)
}

/// The name of every module `lines` declare in another file (`mod x;`).
fn declared_mods<'a>(lines: impl Iterator<Item = &'a str>) -> impl Iterator<Item = &'a str> {
    lines.filter_map(|l| Some(mod_item(l)?.strip_prefix("mod ")?.strip_suffix(';')?.trim()))
}

/// The file of module `name` declared in `parent`, if `files` holds it:
/// `x.rs` or `x/mod.rs` beside a `mod.rs`, `lib.rs` or `main.rs`, and
/// under a directory named after any other parent.
fn module_file(parent: &Path, name: &str, files: &BTreeMap<PathBuf, String>) -> Option<PathBuf> {
    let dir = match parent.file_stem().and_then(|s| s.to_str()) {
        Some("mod" | "lib" | "main") => parent.parent()?.to_path_buf(),
        _ => parent.with_extension(""),
    };
    [
        dir.join(format!("{name}.rs")),
        dir.join(name).join("mod.rs"),
    ]
    .into_iter()
    .find(|p| files.contains_key(p))
}

/// The files of `files` that only test code declares: named by a `mod`
/// in another file's unit-test part, or by any `mod` of such a file.
fn test_only_files(files: &BTreeMap<PathBuf, String>) -> BTreeSet<PathBuf> {
    let mut todo: Vec<PathBuf> = files
        .iter()
        .flat_map(|(path, text)| {
            let tests = text.lines().skip(non_test_part(text).count());
            declared_mods(tests).filter_map(|name| module_file(path, name, files))
        })
        .collect();
    let mut found = BTreeSet::new();
    while let Some(path) = todo.pop() {
        if let Some(text) = files.get(&path).filter(|_| !found.contains(&path)) {
            todo.extend(declared_mods(text.lines()).filter_map(|n| module_file(&path, n, files)));
            found.insert(path);
        }
    }
    found
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

/// Non-test lines of every `.rs` file under `dir` but the test-only
/// ones, summed.
fn count_dir(dir: &Path) -> std::io::Result<usize> {
    let mut files = BTreeMap::new();
    for_each_rs(dir, &mut |path, text| {
        files.insert(path.to_path_buf(), text.to_string());
    })?;
    let test_only = test_only_files(&files);
    Ok(files
        .iter()
        .filter(|(path, _)| !test_only.contains(*path))
        .map(|(_, text)| non_test_part(text).count())
        .sum())
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
    use super::{count_dir, non_test_part};

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

    #[test]
    fn a_file_only_test_code_declares_is_not_counted() {
        let dir = std::env::temp_dir().join(format!("xtask-loc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let write = |path: &str, text: &str| {
            let path = dir.join(path);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        // lib.rs: 2 lines before its test part, which declares `reference`
        // (a file) and `tests` (inline).
        write(
            "lib.rs",
            "mod counter;\npub mod wire;\n#[cfg(test)]\nmod reference;\n#[cfg(test)]\nmod tests {}\n",
        );
        // counter/mod.rs: `hashmap` and its own child are test-only.
        write(
            "counter/mod.rs",
            "pub fn count() {}\n\n#[cfg(test)]\n#[expect(dead_code, reason = \"x\")]\nmod hashmap;\n",
        );
        write("counter/hashmap.rs", "mod probe;\nfn map() {}\n");
        write("counter/hashmap/probe.rs", "fn probe() {}\n");
        write("wire/mod.rs", "fn a() {}\nfn b() {}\n");
        write("reference.rs", "fn r() {}\n");
        // lib 2 + counter/mod 2 + wire 2; hashmap, probe, reference out.
        assert_eq!(count_dir(&dir).unwrap(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
