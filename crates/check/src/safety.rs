//! The `SAFETY:` comment lint (`AVC-S001`).
//!
//! Every `unsafe` site in the workspace — block, `unsafe impl`, or
//! `unsafe fn` — must carry an adjacent `// SAFETY:` comment stating the
//! invariant that makes it sound. The interleaving checker
//! ([`protocols`](crate::protocols)) proves the two protocols those
//! comments appeal to; this lint makes sure the comments themselves
//! cannot silently disappear as the code evolves. CI runs it over the
//! whole workspace via `checker --smoke`.
//!
//! # What counts as adjacent
//!
//! Starting from the line holding the `unsafe` token, the lint walks
//! upward and accepts the first comment mentioning `SAFETY:`, skipping:
//!
//! * blank lines,
//! * attribute lines (`#[inline]`, `#[allow(...)]`, …),
//! * *statement continuations* — code lines that do not end in `;`, `{`
//!   or `}`, so `let x =\n    unsafe { … }` finds a comment above the
//!   `let`.
//!
//! Any other code line is a statement boundary and stops the walk: a
//! `SAFETY:` comment three statements up does not annotate this site.
//!
//! The scanner lexes Rust source character-by-character (line/block
//! comments, string/raw-string/char literals), so `unsafe` inside a
//! string or doc comment is never a site, and `SAFETY:` only counts when
//! it appears in an actual comment.

use crate::Findings;
use std::path::{Path, PathBuf};

/// One source line split into its code and comment parts by the lexer.
#[derive(Debug, Clone, Default)]
struct SourceLine {
    /// Code characters only (comment and literal contents excluded).
    code: String,
    /// Comment characters only (line and block comments).
    comment: String,
}

impl SourceLine {
    fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }

    fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    fn is_attribute(&self) -> bool {
        let t = self.code.trim_start();
        t.starts_with("#[") || t.starts_with("#![")
    }

    fn has_safety_comment(&self) -> bool {
        self.comment.contains("SAFETY:")
    }

    /// Whether the line ends a statement (so the upward walk must stop).
    fn is_statement_boundary(&self) -> bool {
        matches!(self.code.trim_end().chars().last(), Some(';' | '{' | '}'))
    }
}

/// Where a lexed character lands: code text, comment text, or nowhere
/// (string/char-literal contents, which must influence neither the
/// `unsafe` search nor the `SAFETY:` search).
#[derive(Clone, Copy, PartialEq)]
enum Sink {
    Code,
    Comment,
    Skip,
}

/// Splits `source` into per-line code/comment parts with a small Rust
/// lexer: line comments, nested block comments, string, raw-string,
/// byte-string and char literals are all recognized.
fn lex_lines(source: &str) -> Vec<SourceLine> {
    let mut lines = vec![SourceLine::default()];
    let push = |lines: &mut Vec<SourceLine>, sink: Sink, c: char| {
        if c == '\n' {
            lines.push(SourceLine::default());
            return;
        }
        let line = lines.last_mut().expect("non-empty");
        match sink {
            Sink::Code => line.code.push(c),
            Sink::Comment => line.comment.push(c),
            Sink::Skip => {}
        }
    };
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment (also doc comments) to end of line.
                while i < chars.len() && chars[i] != '\n' {
                    push(&mut lines, Sink::Comment, chars[i]);
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment, nesting like Rust's.
                let mut depth = 0usize;
                while i < chars.len() {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        push(&mut lines, Sink::Comment, '/');
                        push(&mut lines, Sink::Comment, '*');
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        push(&mut lines, Sink::Comment, '*');
                        push(&mut lines, Sink::Comment, '/');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        push(&mut lines, Sink::Comment, chars[i]);
                        i += 1;
                    }
                }
            }
            'r' | 'b'
                if (c == 'r' || chars.get(i + 1) == Some(&'r')) && {
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    while chars.get(j) == Some(&'#') {
                        j += 1;
                    }
                    chars.get(j) == Some(&'"')
                } =>
            {
                // Raw (byte) string: r"…", r#"…"#, br##"…"##, … (a bare
                // b"…" byte string falls through to the plain-string arm
                // on the next character).
                let mut j = i + if c == 'b' { 2 } else { 1 };
                let mut hashes = 0usize;
                while chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                // Emit prefix + opening quote as code, then skip the body
                // to past the closing quote+hashes; newlines inside still
                // break lines.
                for &p in &chars[i..=j] {
                    push(&mut lines, Sink::Code, p);
                }
                i = j + 1;
                while i < chars.len() {
                    if chars[i] == '"' {
                        let mut k = 0;
                        while k < hashes && chars.get(i + 1 + k) == Some(&'#') {
                            k += 1;
                        }
                        if k == hashes {
                            push(&mut lines, Sink::Code, '"');
                            i += 1 + hashes;
                            break;
                        }
                    }
                    push(&mut lines, Sink::Skip, chars[i]);
                    i += 1;
                }
            }
            '"' => {
                // String literal (escapes honored, may span lines).
                push(&mut lines, Sink::Code, '"');
                i += 1;
                while i < chars.len() {
                    match chars[i] {
                        '\\' => i += 2,
                        '"' => {
                            push(&mut lines, Sink::Code, '"');
                            i += 1;
                            break;
                        }
                        other => {
                            push(&mut lines, Sink::Skip, other);
                            i += 1;
                        }
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals,
                // 'static is a lifetime (no closing quote).
                let is_char_literal = match chars.get(i + 1) {
                    Some('\\') => true,
                    Some(&n) if n != '\'' => chars.get(i + 2) == Some(&'\''),
                    _ => false,
                };
                push(&mut lines, Sink::Code, '\'');
                i += 1;
                if is_char_literal {
                    if chars.get(i) == Some(&'\\') {
                        i += 2; // escape head; scan to the closing quote
                        while i < chars.len() && chars[i] != '\'' {
                            i += 1;
                        }
                    } else {
                        i += 1;
                    }
                    if chars.get(i) == Some(&'\'') {
                        push(&mut lines, Sink::Code, '\'');
                        i += 1;
                    }
                }
            }
            c => {
                push(&mut lines, Sink::Code, c);
                i += 1;
            }
        }
    }
    lines
}

/// Whether `code` contains `unsafe` as a standalone token (so
/// `unsafe_code` in a `forbid` attribute never matches).
fn has_unsafe_token(code: &str) -> bool {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = code[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let ok_before = start == 0 || !is_ident(bytes[start - 1]);
        let ok_after = end == bytes.len() || !is_ident(bytes[end]);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// Scans one file's source text into `findings`; `label` names it in
/// finding locations (typically a path relative to the workspace root).
pub fn scan_source(label: &str, source: &str, findings: &mut Findings) {
    let lines = lex_lines(source);
    for (idx, line) in lines.iter().enumerate() {
        if !has_unsafe_token(&line.code) {
            continue;
        }
        if line.has_safety_comment() {
            continue; // trailing `// SAFETY:` on the same line
        }
        let mut annotated = false;
        for above in lines[..idx].iter().rev() {
            if above.is_comment_only() || above.is_blank() {
                if above.has_safety_comment() {
                    annotated = true;
                    break;
                }
                continue;
            }
            if above.is_attribute() {
                continue;
            }
            if above.is_statement_boundary() {
                break; // previous statement: its comments don't count
            }
            // Statement continuation (`let x =`): keep walking, but a
            // trailing comment on it may carry the annotation.
            if above.has_safety_comment() {
                annotated = true;
                break;
            }
        }
        if !annotated {
            findings.push("AVC-S001", || {
                (
                    format!("{label}:{}", idx + 1),
                    "`unsafe` site has no adjacent `SAFETY:` comment",
                )
            });
        }
    }
}

/// Lints every `.rs` file under `root` (skipping `target/` and hidden
/// directories) into `findings`, in deterministic path order.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn lint_unsafe_comments(root: &Path, findings: &mut Findings) -> std::io::Result<()> {
    let mut files = Vec::new();
    collect_rust_files(root, &mut files)?;
    files.sort();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        scan_source(&label, &source, findings);
    }
    Ok(())
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn scan(label: &str, source: &str) -> Vec<Finding> {
        let mut findings = Findings::default();
        scan_source(label, source, &mut findings);
        findings.finish()
    }

    #[test]
    fn annotated_block_passes() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   \x20   // SAFETY: p is valid for reads per the caller contract.\n\
                   \x20   unsafe { *p }\n\
                   }\n";
        assert_eq!(scan("a.rs", src), Vec::new());
    }

    #[test]
    fn unannotated_block_flagged_with_line() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let findings = scan("a.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "AVC-S001");
        assert_eq!(findings[0].location, "a.rs:2");
    }

    #[test]
    fn continuation_lines_are_walked_through() {
        // The pool.rs shape: comment, then `let … =`, then the unsafe.
        let src = "fn f(job: &Job) {\n\
                   \x20   // SAFETY: the 'static lifetime is confined to this call.\n\
                   \x20   let job: &'static Job =\n\
                   \x20       unsafe { std::mem::transmute(job) };\n\
                   }\n";
        assert_eq!(scan("pool.rs", src), Vec::new());
    }

    #[test]
    fn attributes_are_skipped() {
        let src = "// SAFETY: justified above the attribute.\n\
                   #[allow(clippy::undocumented_unsafe_blocks)]\n\
                   unsafe impl Send for T {}\n";
        assert_eq!(scan("a.rs", src), Vec::new());
    }

    #[test]
    fn comment_across_statement_boundary_does_not_count() {
        // The pre-fix arena.rs shape: the Send impl's comment must not
        // annotate the Sync impl below it.
        let src = "// SAFETY: mutation goes through the claim protocol.\n\
                   unsafe impl Send for W {}\n\
                   unsafe impl Sync for W {}\n";
        let findings = scan("arena.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].location, "arena.rs:3");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_not_a_site() {
        let src = concat!(
            "// this comment says unsafe { } and is fine\n",
            "/* block comment: unsafe impl Sync */\n",
            "fn f() -> &'static str {\n",
            "    let _lifetime: &'static str = \"unsafe { in a string }\";\n",
            "    r#\"raw string\n",
            "       unsafe { spanning lines }\n",
            "    \"#\n",
            "}\n",
            "#![forbid(unsafe_code)]\n",
        );
        assert_eq!(scan("a.rs", src), Vec::new());
    }

    #[test]
    fn trailing_same_line_safety_comment_counts() {
        let src = "fn f(p: *const u8) -> u8 {\n\
                   \x20   unsafe { *p } // SAFETY: p valid per contract\n\
                   }\n";
        assert_eq!(scan("a.rs", src), Vec::new());
    }

    #[test]
    fn safety_in_string_literal_does_not_count() {
        // A "SAFETY:" inside a string on the same line must not satisfy
        // the lint — only real comments do.
        let src = "fn f(p: *const u8) -> u8 {\n\
                   \x20   let _caption = \"SAFETY: spoofed\"; unsafe { *p }\n\
                   }\n";
        let findings = scan("a.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].location, "a.rs:2");
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let src = "fn f() {\n\
                   \x20   let q = '\"';\n\
                   \x20   let n = '\\n';\n\
                   \x20   let s: &'static u8 = &0;\n\
                   \x20   let _ = (q, n, s);\n\
                   \x20   unsafe { core::hint::unreachable_unchecked() }\n\
                   }\n";
        // The '"' char literal must not open a string that swallows the
        // unsafe block below it.
        let findings = scan("a.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].location, "a.rs:6");
    }

    #[test]
    fn workspace_unsafe_sites_are_all_annotated() {
        // The CI-enforced property: every unsafe site in this repository
        // carries a SAFETY: comment the walk accepts.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let mut findings = Findings::default();
        lint_unsafe_comments(root, &mut findings).expect("workspace scan");
        let findings = findings.finish();
        assert_eq!(findings, Vec::new(), "unannotated unsafe: {findings:?}");
    }
}
