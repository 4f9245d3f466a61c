//! `gcsm-lint` — workspace-wide static invariant analyzer.
//!
//! The compiler can't see GCSM's project rules: sorted-adjacency and
//! tombstone invariants live in comments, hot-path kernels must stay
//! panic-free, and the stream worker's lock discipline is a convention. This
//! crate walks the whole workspace with its own lightweight lexer (no
//! external deps — consistent with the vendored-offline constraint) and
//! enforces them:
//!
//! | rule id           | checks                                                        |
//! |-------------------|---------------------------------------------------------------|
//! | `unsafe-doc`      | every `unsafe` is preceded by a `// SAFETY:` comment          |
//! | `hot-path-panic`  | no `unwrap`/`expect`/`panic!`/bare indexing in hot modules    |
//! | `relaxed-justify` | `Ordering::Relaxed` needs an inline `Relaxed:` justification  |
//! | `lock-order`      | cross-function lock acquisition order has no cycles           |
//! | `no-debug-macros` | `todo!`/`unimplemented!`/`dbg!` banned workspace-wide         |
//! | `no-raw-clock`    | `Instant::now()` banned in matcher/core; use `gcsm-obs` clocks|
//! | `vendor-pin`      | every `vendor/*` shim appears in `Cargo.lock` at its version  |
//! | `allow-syntax`    | suppression comments are well-formed (known rule, has reason) |
//!
//! Findings can be suppressed inline with
//! `// lint:allow(rule-id) -- reason` — on the offending line, on the line
//! directly above it, or directly above a `fn` item to cover the whole
//! function. The reason is mandatory. See DESIGN.md §9.

pub mod lexer;
pub mod rules;

use lexer::{Lexed, TokKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// Rule identifiers accepted by `lint:allow(..)`.
pub const RULE_IDS: &[&str] = &[
    "unsafe-doc",
    "hot-path-panic",
    "relaxed-justify",
    "lock-order",
    "no-debug-macros",
    "no-raw-clock",
    "vendor-pin",
];

/// Hot-path modules (workspace-relative prefixes): panics and bare indexing
/// are banned here outside `#[cfg(test)]` code.
pub const HOT_PATH_MODULES: &[&str] = &[
    "crates/matcher/src/enumerate.rs",
    "crates/matcher/src/intersect.rs",
    "crates/matcher/src/stack.rs",
    "crates/matcher/src/group.rs",
    "crates/core/src/engines/",
    "crates/cache/src/delta.rs",
    "crates/freq/src/merged.rs",
    "crates/freq/src/fused.rs",
    "crates/freq/src/binomial.rs",
    "crates/matcher/src/reads.rs",
];

/// Scopes where `Ordering::Relaxed` requires a justification comment.
pub const RELAXED_SCOPES: &[&str] = &["crates/core/src/stream/", "crates/graph/src/"];

/// Scopes where `Instant::now()` is banned in favor of the `gcsm-obs`
/// clock (`Stopwatch` / `monotonic_micros`), keeping every timing source on
/// the one trace timeline.
pub const RAW_CLOCK_SCOPES: &[&str] = &["crates/matcher/src/", "crates/core/src/"];

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Serialize findings as machine-readable JSON (hand-rolled; the workspace
/// carries no serde).
pub fn findings_to_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut s = String::from("{\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            esc(f.rule),
            esc(&f.file),
            f.line,
            esc(&f.message)
        ));
    }
    s.push_str(&format!("],\"count\":{}}}", findings.len()));
    s
}

/// A lexed source file plus everything the rules need to scope and suppress.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` sits inside `#[cfg(test)]` or
    /// `#[test]` code.
    pub test_mask: Vec<bool>,
    pub allows: Vec<Allow>,
}

/// One parsed `lint:allow` comment.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Rules named in the parens (comma separated).
    pub rules: Vec<String>,
    pub has_reason: bool,
    /// Line of the comment itself.
    pub line: u32,
    /// Inclusive line range the suppression covers.
    pub covers: (u32, u32),
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> Self {
        let lexed = lexer::lex(src);
        let test_mask = test_region_mask(&lexed);
        let allows = parse_allows(&lexed);
        Self { path: path.to_string(), lexed, test_mask, allows }
    }

    /// True if a well-formed allow for `rule` covers `line`.
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.allows.iter().any(|a| {
            a.has_reason
                && a.covers.0 <= line
                && line <= a.covers.1
                && a.rules.iter().any(|r| r == rule)
        })
    }

    /// True when `line` (or the run of comment-only lines directly above it)
    /// carries a comment containing `marker`. This is how `SAFETY:` and
    /// `Relaxed:` justifications are located.
    pub fn justified_by(&self, marker: &str, line: u32) -> bool {
        if self.lexed.comments_on(line).any(|c| c.text.contains(marker)) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 && self.lexed.line_is_comment_only(l) {
            if self.lexed.comments_on(l).any(|c| c.text.contains(marker)) {
                return true;
            }
            l -= 1;
        }
        false
    }
}

/// Keywords that can directly precede `[` without forming an index
/// expression (slice patterns, array types after `&mut`, …).
pub(crate) fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "break"
            | "const"
            | "continue"
            | "crate"
            | "dyn"
            | "else"
            | "enum"
            | "extern"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "super"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
    )
}

/// Mark every token inside `#[cfg(test)] mod … { }` / `#[test] fn … { }`
/// bodies (rules exempting test code consult this mask).
fn test_region_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            // Scan the attribute's bracket group for a bare `test` ident.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" if toks[j].kind == TokKind::Ident => has_test = true,
                    "not" if toks[j].kind == TokKind::Ident => has_not = true,
                    _ => {}
                }
                j += 1;
            }
            if has_test && !has_not {
                // The attributed item's body: first `{` after the attribute,
                // to its matching `}`. A `;` first means a body-less item
                // (`#[cfg(test)] use …;`) — nothing to mask.
                let mut k = j;
                while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                    k += 1;
                }
                if toks.get(k).is_some_and(|t| t.text == ";") {
                    i = k;
                    continue;
                }
                let mut depth = 0usize;
                let body_start = k;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(k.min(toks.len() - 1) + 1).skip(body_start) {
                    *m = true;
                }
                i = j;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// Parse every `lint:allow(rule, …) -- reason` comment and compute the line
/// range each one covers: its own line if code precedes the comment on that
/// line, otherwise the next code line — extended to the whole body when that
/// line starts a `fn` item.
fn parse_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        // Doc comments are prose: an allow marker there is documentation
        // about the syntax, not a directive.
        let is_doc = c.text.starts_with("//!")
            || c.text.starts_with("/*!")
            || c.text.starts_with("/**")
            || (c.text.starts_with("///") && !c.text.starts_with("////"));
        if is_doc {
            continue;
        }
        let Some(idx) = c.text.find("lint:allow") else { continue };
        let rest = &c.text[idx + "lint:allow".len()..];
        let (rules, after) = match rest.strip_prefix('(').and_then(|r| {
            r.find(')').map(|close| {
                let ids: Vec<String> =
                    r[..close].split(',').map(|s| s.trim().to_string()).collect();
                (ids, &r[close + 1..])
            })
        }) {
            Some(v) => v,
            None => (Vec::new(), rest),
        };
        let has_reason =
            after.trim_start().strip_prefix("--").is_some_and(|r| !r.trim().is_empty());
        let trailing = lexed.tokens.iter().any(|t| t.line == c.line);
        let covers = if trailing { (c.line, c.line) } else { target_range(lexed, c.end_line) };
        out.push(Allow { rules, has_reason, line: c.line, covers });
    }
    out
}

/// The line range an own-line allow above `comment_end` covers: the next
/// code line, widened to the full body when that line begins a function
/// (attributes and visibility modifiers are skipped).
fn target_range(lexed: &Lexed, comment_end: u32) -> (u32, u32) {
    let toks = &lexed.tokens;
    let Some(first) = toks.iter().position(|t| t.line > comment_end) else {
        return (comment_end + 1, comment_end + 1);
    };
    let target_line = toks[first].line;
    // Skip attributes and modifiers to see whether the item is a `fn`.
    let mut i = first;
    loop {
        if toks.get(i).is_some_and(|t| t.text == "#")
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
        {
            let mut depth = 0usize;
            i += 1;
            while i < toks.len() {
                match toks[i].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        match toks.get(i).map(|t| t.text.as_str()) {
            Some("pub") => {
                i += 1;
                // `pub(crate)` / `pub(super)` visibility scope.
                if toks.get(i).is_some_and(|t| t.text == "(") {
                    while i < toks.len() && toks[i].text != ")" {
                        i += 1;
                    }
                    i += 1;
                }
            }
            Some("const") | Some("unsafe") | Some("extern") | Some("async") => i += 1,
            _ => break,
        }
    }
    if toks.get(i).map_or(true, |t| t.text != "fn") {
        return (target_line, target_line);
    }
    // Function item: cover through the end of its body.
    let mut depth = 0usize;
    let mut end_line = target_line;
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    end_line = toks[i].line;
                    break;
                }
            }
            _ => {}
        }
        i += 1;
    }
    (target_line, end_line)
}

/// Lint a set of in-memory sources (path → contents). Runs every token rule
/// plus the cross-file lock-order analysis; `vendor-pin` needs the real
/// filesystem and runs only via [`run`].
pub fn lint_project(files: &[(String, String)]) -> Vec<Finding> {
    let sources: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
    let mut findings = Vec::new();
    for f in &sources {
        rules::allow_syntax::check(f, &mut findings);
        rules::unsafe_doc::check(f, &mut findings);
        rules::debug_macros::check(f, &mut findings);
        rules::hot_path::check(f, &mut findings);
        rules::raw_clock::check(f, &mut findings);
        rules::relaxed::check(f, &mut findings);
    }
    rules::lock_order::check(&sources, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Lint a single file (fixture-test convenience; no lock-order cross-file
/// propagation beyond this file).
pub fn lint_file(path: &str, src: &str) -> Vec<Finding> {
    lint_project(&[(path.to_string(), src.to_string())])
}

/// Walk the workspace at `root` and lint everything: token rules over
/// `crates/`, `tests/`, `examples/`, and `vendor/`, plus the `vendor-pin`
/// filesystem check. `crates/lint/tests/fixtures/` (deliberately-violating
/// snippets) and `target/` are skipped.
pub fn run(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for top in ["crates", "tests", "examples", "vendor"] {
        collect_rs(&root.join(top), &mut files)?;
    }
    files.sort();
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            std::fs::read_to_string(&p).map(|s| (rel, s))
        })
        .collect::<std::io::Result<_>>()?;
    let mut findings = lint_project(&sources);
    rules::vendor_pin::check(root, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let unwrap_pos =
            f.lexed.tokens.iter().position(|t| t.text == "unwrap").expect("token present");
        assert!(f.test_mask[unwrap_pos]);
        let live_pos = f.lexed.tokens.iter().position(|t| t.text == "live").expect("present");
        assert!(!f.test_mask[live_pos]);
    }

    #[test]
    fn allow_parses_rules_and_reason() {
        let src = "// lint:allow(hot-path-panic) -- bounds proven above\nlet x = a[i];\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert!(f.allows[0].has_reason);
        assert_eq!(f.allows[0].covers, (2, 2));
        assert!(f.suppressed("hot-path-panic", 2));
        assert!(!f.suppressed("unsafe-doc", 2));
    }

    #[test]
    fn allow_above_fn_covers_whole_body() {
        let src = "// lint:allow(lock-order) -- intentional\n#[inline]\npub fn f() {\n    a();\n    b();\n}\nfn g() {}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.allows[0].covers, (2, 6));
        assert!(f.suppressed("lock-order", 5));
        assert!(!f.suppressed("lock-order", 7));
    }

    #[test]
    fn allow_without_reason_does_not_suppress() {
        let src = "let x = a[i]; // lint:allow(hot-path-panic)\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.suppressed("hot-path-panic", 1));
    }

    #[test]
    fn json_escapes() {
        let fs = vec![Finding {
            rule: "unsafe-doc",
            file: "a\"b.rs".into(),
            line: 3,
            message: "tab\there".into(),
        }];
        let j = findings_to_json(&fs);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("tab\\there"));
        assert!(j.contains("\"count\":1"));
    }
}
