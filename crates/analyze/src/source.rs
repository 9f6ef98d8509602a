//! Per-file structural analysis on top of the lexer: block context
//! (loops, `#[cfg(test)]` regions, `unsafe`), item spans (`fn` bodies
//! with their outgoing calls), suppression comments, and justification
//! comments. This is the layer every rule reads; none of it ever sees
//! the inside of a string literal or a comment.

use crate::lexer::{is_ident_char, is_ident_start, lex};

/// A function (or method) definition found in a file.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Simple name (`handle_connection`, not the path).
    pub name: String,
    /// 1-based line of the opening brace's header.
    pub start_line: usize,
    /// 1-based line of the closing brace (inclusive).
    pub end_line: usize,
    /// Whether the definition sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Simple names this function's body mentions in call position
    /// (`foo(..)`, `x.foo(..)`, `T::foo(..)`), deduplicated.
    pub calls: Vec<String>,
}

/// One file, fully analyzed.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Raw lines — suppression / justification comments live here.
    pub raw: Vec<String>,
    /// Sanitized code lines (see [`crate::lexer`]); rule matching
    /// happens here.
    pub code: Vec<String>,
    /// Line is inside a `#[cfg(test)]`-gated block.
    pub in_test: Vec<bool>,
    /// Every `.wait(` occurrence on the line sits inside a
    /// `while`/`loop` block (true when no wait is present).
    pub wait_in_loop: Vec<bool>,
    /// Index into `fns` of the innermost enclosing function, per line.
    pub enclosing_fn: Vec<Option<usize>>,
    /// Functions defined in this file, in source order.
    pub fns: Vec<FnDecl>,
}

impl SourceFile {
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let raw: Vec<String> = src.lines().map(str::to_string).collect();
        let lexed = lex(src);
        let mut code = lexed.code_lines;
        // `str::lines` drops a trailing newline's empty line; keep the
        // two views the same length.
        while code.len() > raw.len() && code.last().is_some_and(|l| l.trim().is_empty()) {
            code.pop();
        }
        while code.len() < raw.len() {
            code.push(String::new());
        }

        let mut scan = scan_blocks(&code);
        // An integration-test file is test code from top to bottom.
        if rel.contains("/tests/") {
            scan.in_test.fill(true);
            scan.fns.iter_mut().for_each(|f| f.in_test = true);
        }
        SourceFile {
            rel: rel.to_string(),
            raw,
            code,
            in_test: scan.in_test,
            wait_in_loop: scan.wait_in_loop,
            enclosing_fn: scan.enclosing_fn,
            fns: scan.fns,
        }
    }

    /// `// lint:allow(<rule>): reason` on line `i` (0-based) or anywhere
    /// in the contiguous comment block directly above it. The trailing
    /// colon is part of the pattern: a reason is mandatory.
    pub fn suppressed(&self, i: usize, rule: &str) -> bool {
        let pat = format!("lint:allow({rule}):");
        if self.raw[i].contains(&pat) {
            return true;
        }
        let mut j = i;
        while j > 0 && self.raw[j - 1].trim_start().starts_with("//") {
            j -= 1;
            if self.raw[j].contains(&pat) {
                return true;
            }
        }
        false
    }

    /// A `relaxed:` marker (comment text) on line `i` or within the
    /// preceding `window` lines.
    pub fn has_marker_within(&self, i: usize, marker: &str, window: usize) -> bool {
        let lo = i.saturating_sub(window);
        self.raw[lo..=i]
            .iter()
            .any(|l| l.to_ascii_lowercase().contains(marker))
    }

    /// Is line `i` (0-based) justified by a `// SAFETY:` comment — on
    /// the line itself, or in the comment block above it? The walk
    /// upward skips blank lines, attributes, and directly-adjacent
    /// `unsafe impl` lines, so one comment can cover a `Send`/`Sync`
    /// pair.
    pub fn has_safety_comment(&self, i: usize) -> bool {
        if self.raw[i].contains("SAFETY:") {
            return true;
        }
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = self.raw[j].trim_start();
            if t.starts_with("//") {
                if t.contains("SAFETY:") {
                    return true;
                }
            } else if t.is_empty() {
                // A blank line ends the contiguous region the comment
                // can cover.
                return false;
            } else if t.starts_with("#[") {
                // skip attributes between the comment and the item
            } else if self.code[j].contains("unsafe impl") {
                // A sibling `unsafe impl` (Send next to Sync): keep
                // walking so their shared comment is found.
            } else {
                return false;
            }
        }
        false
    }

    /// The function enclosing 1-based line `line_no`, if any.
    pub fn fn_at(&self, line_no: usize) -> Option<&FnDecl> {
        self.enclosing_fn
            .get(line_no - 1)
            .copied()
            .flatten()
            .map(|i| &self.fns[i])
    }
}

struct BlockScan {
    in_test: Vec<bool>,
    wait_in_loop: Vec<bool>,
    enclosing_fn: Vec<Option<usize>>,
    fns: Vec<FnDecl>,
}

/// The block scanner: text since the last `;`/`{`/`}` is the pending
/// "header"; when a `{` opens, the header decides whether the new block
/// is a loop (`while`/`loop`), test-gated (`#[cfg(test)` attribute), or
/// a function definition (`fn NAME`). Runs on sanitized lines, so
/// braces inside literals cannot desynchronize it.
fn scan_blocks(code: &[String]) -> BlockScan {
    struct Block {
        is_loop: bool,
        is_test: bool,
        fn_idx: Option<usize>,
    }
    let mut stack: Vec<Block> = Vec::new();
    let mut pending = String::new();
    let mut in_test = Vec::with_capacity(code.len());
    let mut wait_in_loop = Vec::with_capacity(code.len());
    let mut enclosing_fn: Vec<Option<usize>> = Vec::with_capacity(code.len());
    let mut fns: Vec<FnDecl> = Vec::new();

    for (lineno0, line) in code.iter().enumerate() {
        // Byte offsets of `.wait(` on this line; the loop check is taken
        // at each occurrence's position so same-line openings
        // (`while p() { g = cv.wait(g); }`) are seen correctly.
        let wait_positions: Vec<usize> = {
            let mut v = Vec::new();
            let mut from = 0;
            while let Some(rel) = line[from..].find(".wait(") {
                v.push(from + rel);
                from += rel + 1;
            }
            v
        };
        let test_at_start = stack.iter().any(|b| b.is_test);
        let fn_at_start = stack.iter().rev().find_map(|b| b.fn_idx);
        let mut all_waits_looped = true;
        // Functions whose definition opens on this line — their bodies
        // may also close on it (`fn f() { g(); }`), so call attribution
        // cannot rely on the stack at line start or line end alone.
        let mut opened_fns: Vec<usize> = Vec::new();

        for (pos, ch) in line.char_indices() {
            if wait_positions.contains(&pos) && !stack.iter().any(|b| b.is_loop) {
                all_waits_looped = false;
            }
            match ch {
                '{' => {
                    let is_loop = find_token(&pending, "while").is_some()
                        || find_token(&pending, "loop").is_some();
                    let is_test =
                        pending.contains("#[cfg(test)") || pending.contains("#[cfg(all(test");
                    let in_test_now = is_test || stack.iter().any(|b| b.is_test);
                    let fn_idx = fn_header_name(&pending).map(|name| {
                        fns.push(FnDecl {
                            name,
                            start_line: lineno0 + 1,
                            end_line: lineno0 + 1,
                            in_test: in_test_now,
                            calls: Vec::new(),
                        });
                        opened_fns.push(fns.len() - 1);
                        fns.len() - 1
                    });
                    stack.push(Block {
                        is_loop,
                        is_test: in_test_now,
                        fn_idx,
                    });
                    pending.clear();
                }
                '}' => {
                    if let Some(b) = stack.pop() {
                        if let Some(fi) = b.fn_idx {
                            fns[fi].end_line = lineno0 + 1;
                        }
                    }
                    pending.clear();
                }
                ';' => pending.clear(),
                c => pending.push(c),
            }
        }
        pending.push(' ');
        // A line counts as test code (or part of a function) if it is
        // inside the region at either end, so closing-brace lines stay
        // attached.
        in_test.push(test_at_start || stack.iter().any(|b| b.is_test));
        wait_in_loop.push(all_waits_looped);
        let fn_now = stack.iter().rev().find_map(|b| b.fn_idx);
        enclosing_fn.push(fn_at_start.or(fn_now));

        // Attribute this line's call names to the innermost function
        // whose body touches the line: the last one opened on it (which
        // covers single-line bodies already popped off the stack), else
        // the one enclosing the line. The names of functions *defined*
        // on this line are excluded — a header `fn alpha() {` is a
        // declaration, not a call of `alpha`.
        if let Some(fi) = opened_fns.last().copied().or(fn_at_start).or(fn_now) {
            for name in call_names(line) {
                if opened_fns.iter().any(|&of| fns[of].name == name) {
                    continue;
                }
                if !fns[fi].calls.contains(&name) {
                    fns[fi].calls.push(name);
                }
            }
        }
    }

    BlockScan {
        in_test,
        wait_in_loop,
        enclosing_fn,
        fns,
    }
}

/// If a pending block header declares a function, its name. Rejects
/// headers where `fn` appears only in a type position (`Box<dyn Fn(..)`
/// uses `Fn`, not `fn`; bare `fn(..)` pointer types have no name).
fn fn_header_name(pending: &str) -> Option<String> {
    let pos = find_token(pending, "fn")?;
    let rest = pending[pos + 2..].trim_start();
    let name: String = rest.chars().take_while(|c| is_ident_char(*c)).collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(name)
}

/// Words that appear in call position without being function calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "move", "unsafe", "else", "in", "as",
    "let", "ref", "mut", "box", "await", "yield", "where", "impl", "dyn", "pub", "crate", "super",
    "self", "Self", "use", "mod", "static", "const", "type", "struct", "enum", "union", "trait",
];

/// Simple names in call position on one sanitized line: an identifier
/// immediately followed by `(`. Macro invocations (`name!(`) never
/// match because `!` intervenes.
pub fn call_names(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if is_ident_start(chars[i]) && (i == 0 || !is_ident_char(chars[i - 1])) {
            let start = i;
            while i < chars.len() && is_ident_char(chars[i]) {
                i += 1;
            }
            if chars.get(i) == Some(&'(') {
                let name: String = chars[start..i].iter().collect();
                if !CALL_KEYWORDS.contains(&name.as_str()) {
                    out.push(name);
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Byte position of `token` in `code` as a whole word (not part of a
/// longer identifier), or None.
pub fn find_token(code: &str, token: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(rel) = code[start..].find(token) {
        let pos = start + rel;
        let pre_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap());
        let end = pos + token.len();
        let post_ok = end >= code.len() || !is_ident_char(code[end..].chars().next().unwrap());
        if pre_ok && post_ok {
            return Some(pos);
        }
        start = pos + token.len();
    }
    None
}

/// `find_token` as a boolean.
pub fn contains_token(code: &str, token: &str) -> bool {
    find_token(code, token).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_spans_and_names() {
        let src = "\
fn alpha() {
    beta();
    if x {
        gamma(1);
    }
}

pub(crate) fn beta() -> u32 {
    0
}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<_> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        assert_eq!(sf.fns[0].start_line, 1);
        assert_eq!(sf.fns[0].end_line, 6);
        assert_eq!(
            sf.fns[0].calls,
            vec!["beta".to_string(), "gamma".to_string()]
        );
        assert_eq!(sf.fn_at(4).unwrap().name, "alpha");
        assert_eq!(sf.fn_at(9).unwrap().name, "beta");
        assert!(sf.fn_at(7).is_none());
    }

    #[test]
    fn methods_and_qualified_calls_are_seen() {
        let src = "\
fn f(x: &Foo) {
    x.method_one();
    Foo::assoc(x);
    helper!(not_a_call);
    let v = vec![1];
    drop(v);
}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let calls = &sf.fns[0].calls;
        assert!(calls.contains(&"method_one".to_string()));
        assert!(calls.contains(&"assoc".to_string()));
        assert!(calls.contains(&"drop".to_string()));
        assert!(!calls.contains(&"helper".to_string()), "{calls:?}");
        assert!(!calls.contains(&"vec".to_string()), "{calls:?}");
    }

    #[test]
    fn closures_attribute_to_the_enclosing_fn() {
        let src = "\
fn spawner() {
    std::thread::spawn(move || {
        inner_work();
    });
}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(sf.fns.len(), 1);
        assert!(sf.fns[0].calls.contains(&"inner_work".to_string()));
    }

    #[test]
    fn cfg_test_region_marks_fns() {
        let src = "\
fn prod() {}

#[cfg(test)]
mod tests {
    fn helper() {
        prod();
    }
}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!sf.fns[0].in_test);
        assert!(sf.fns[1].in_test);
        assert!(sf.in_test[5]);
        assert!(!sf.in_test[0]);
    }

    #[test]
    fn braces_in_strings_do_not_desync_blocks() {
        let src = "\
fn f() {
    let s = \"{{{\";
    g(s);
}
fn after() {}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<_> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["f", "after"]);
        assert_eq!(sf.fns[0].end_line, 4);
    }

    #[test]
    fn safety_comment_lookup() {
        let src = "\
// SAFETY: serialized by the scheduler.
unsafe impl Sync for A {}
unsafe impl Send for A {}

unsafe impl Send for B {}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(sf.has_safety_comment(1));
        // The Send impl is covered by hopping over the sibling Sync impl.
        assert!(sf.has_safety_comment(2));
        // B has no comment anywhere above its contiguous region.
        assert!(!sf.has_safety_comment(4));
    }

    #[test]
    fn suppression_requires_reason() {
        let src = "\
fn f() {
    // lint:allow(some-rule): justified here
    target();
    // lint:allow(other-rule)
    target();
}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(sf.suppressed(2, "some-rule"));
        assert!(!sf.suppressed(4, "other-rule"));
    }

    #[test]
    fn fn_pointer_types_are_not_declarations() {
        let src = "\
struct S {
    callback: fn(u32) -> u32,
}
fn real() {}
";
        let sf = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<_> = sf.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }
}
