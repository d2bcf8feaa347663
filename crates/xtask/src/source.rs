//! Source-file model for the analyses.
//!
//! The parser never sees raw file text directly. Each file is pre-processed
//! into a [`SourceFile`]: a *masked* view where string/char-literal contents
//! and comments are replaced by spaces (so token scans cannot false-positive
//! on text inside literals), a parallel *comments* view holding only comment
//! text (for `xtask-allow` detection), and a per-line flag marking
//! `#[cfg(test)]` regions (the panic audit skips test code).
//!
//! The masking pass is a hand-rolled scanner covering the token forms this
//! repository actually uses: line/block comments (nested), string literals
//! with escapes, raw strings `r#".."#`, byte strings, char literals and
//! lifetimes. It intentionally does not parse Rust — it only needs to be
//! right about *where code is*.

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as shown in findings.
    pub path: String,
    /// Original text, split into lines.
    pub lines: Vec<String>,
    /// Code with comments and literal *contents* blanked to spaces
    /// (delimiters like `"` are preserved), one entry per line.
    pub code: Vec<String>,
    /// Comment text only (everything else blanked), one entry per line.
    pub comments: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]`-gated item.
    pub in_test: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u8),
    ByteStr,
    Char,
}

impl SourceFile {
    /// Analyzes `text` (typically read from `path`).
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let (code_text, comment_text) = mask(text);
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        let code: Vec<String> = code_text.lines().map(str::to_string).collect();
        let comments: Vec<String> = comment_text.lines().map(str::to_string).collect();
        let in_test = test_regions(&code);
        SourceFile {
            path: path.to_string(),
            lines,
            code,
            comments,
            in_test,
        }
    }

    /// `true` when a finding of `slug` at `line` (0-based) is suppressed by
    /// an `// xtask-allow: slug` annotation on the same line, or on the
    /// previous line when that line is a standalone comment (a trailing
    /// annotation only covers its own line).
    pub fn allows(&self, line: usize, slug: &str) -> bool {
        let annotated = |idx: usize| -> bool {
            self.comments.get(idx).is_some_and(|c| {
                c.split("xtask-allow:")
                    .skip(1)
                    .any(|rest| rest.split(&[',', ' '][..]).any(|w| w.trim() == slug))
            })
        };
        let comment_only =
            |idx: usize| -> bool { self.code.get(idx).is_some_and(|c| c.trim().is_empty()) };
        annotated(line) || (line > 0 && comment_only(line - 1) && annotated(line - 1))
    }
}

/// Splits `text` into (code-only, comments-only) views of identical shape.
fn mask(text: &str) -> (String, String) {
    let bytes: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut comments = String::with_capacity(text.len());
    let mut state = State::Normal;
    let mut i = 0usize;

    // Pushes to one stream and a blank to the other; newlines go to both so
    // the line structure stays aligned.
    let push = |code: &mut String, comments: &mut String, c: char, is_code: bool| {
        if c == '\n' {
            code.push('\n');
            comments.push('\n');
        } else if is_code {
            code.push(c);
            comments.push(' ');
        } else {
            code.push(' ');
            comments.push(c);
        }
    };

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    push(&mut code, &mut comments, c, false);
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    push(&mut code, &mut comments, c, false);
                }
                '"' => {
                    state = State::Str;
                    push(&mut code, &mut comments, c, true);
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u8;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        for &opener in bytes.iter().take(j + 1).skip(i) {
                            push(&mut code, &mut comments, opener, true);
                        }
                        i = j;
                        state = State::RawStr(hashes);
                    } else {
                        push(&mut code, &mut comments, c, true);
                    }
                }
                'b' if next == Some('"') => {
                    push(&mut code, &mut comments, c, true);
                    push(&mut code, &mut comments, '"', true);
                    i += 1;
                    state = State::ByteStr;
                }
                '\'' => {
                    // Distinguish char literal from lifetime: a lifetime is
                    // `'ident` NOT followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphanumeric() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    push(&mut code, &mut comments, c, true);
                    if !is_lifetime {
                        state = State::Char;
                    }
                }
                _ => push(&mut code, &mut comments, c, true),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Normal;
                }
                push(&mut code, &mut comments, c, false);
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    push(&mut code, &mut comments, c, false);
                    push(&mut code, &mut comments, '/', false);
                    i += 1;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    push(&mut code, &mut comments, c, false);
                    push(&mut code, &mut comments, '*', false);
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    push(&mut code, &mut comments, c, false);
                }
            }
            State::Str | State::ByteStr => {
                if c == '\\' {
                    // Skip the escaped character entirely.
                    push(&mut code, &mut comments, ' ', true);
                    if let Some(n) = next {
                        push(
                            &mut code,
                            &mut comments,
                            if n == '\n' { '\n' } else { ' ' },
                            true,
                        );
                        i += 1;
                    }
                } else if c == '"' {
                    push(&mut code, &mut comments, c, true);
                    state = State::Normal;
                } else {
                    push(
                        &mut code,
                        &mut comments,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        push(&mut code, &mut comments, c, true);
                        for _ in 0..hashes {
                            push(&mut code, &mut comments, '#', true);
                            i += 1;
                        }
                        state = State::Normal;
                    } else {
                        push(&mut code, &mut comments, ' ', true);
                    }
                } else {
                    push(
                        &mut code,
                        &mut comments,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                }
            }
            State::Char => {
                if c == '\\' {
                    push(&mut code, &mut comments, ' ', true);
                    if next.is_some() {
                        push(&mut code, &mut comments, ' ', true);
                        i += 1;
                    }
                } else if c == '\'' {
                    push(&mut code, &mut comments, c, true);
                    state = State::Normal;
                } else {
                    push(&mut code, &mut comments, ' ', true);
                }
            }
        }
        i += 1;
    }
    (code, comments)
}

/// Marks every line covered by a `#[cfg(test)]`-gated item (attribute line
/// through the matching closing brace).
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut line = 0usize;
    while line < code.len() {
        if code[line].contains("#[cfg(test)]") {
            // Find the opening brace of the gated item, then match braces.
            let mut depth = 0i32;
            let mut opened = false;
            let start = line;
            let mut end = line;
            'scan: for (offset, text) in code[start..].iter().enumerate() {
                for c in text.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                end = start + offset;
                                break 'scan;
                            }
                        }
                        ';' if !opened && depth == 0 => {
                            // `#[cfg(test)] mod tests;` — out-of-line module.
                            end = start + offset;
                            break 'scan;
                        }
                        _ => {}
                    }
                }
                end = start + offset;
            }
            for flag in &mut in_test[start..=end] {
                *flag = true;
            }
            line = end + 1;
        } else {
            line += 1;
        }
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let x = \"a == b\"; // trailing == note\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code[0].contains("=="), "{}", f.code[0]);
        assert!(f.comments[0].contains("trailing == note"));
        assert_eq!(f.code[1], "let y = 1;");
    }

    #[test]
    fn masks_raw_strings_and_chars() {
        let src = "let s = r#\"as u64\"#;\nlet c = '\"';\nlet l: &'static str = \"x\";\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code[0].contains("as u64"));
        assert!(!f.code[1].contains('"') || f.code[1].matches('"').count() == 0);
        assert!(f.code[2].contains("'static"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let z = 3;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.code[0].contains("let z = 3;"));
        assert!(!f.code[0].contains("outer"));
    }

    #[test]
    fn cfg_test_regions_are_flagged() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn lib2() {}\n";
        let f = SourceFile::parse("t.rs", src);
        assert_eq!(f.in_test, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn allow_annotations_match_same_and_previous_line() {
        let src = "// xtask-allow: indexing\nlet a = x[0];\nlet b = y[0]; // xtask-allow: indexing, other\nlet c = z[0];\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(f.allows(1, "indexing"));
        assert!(f.allows(2, "indexing"));
        assert!(f.allows(2, "other"));
        assert!(!f.allows(3, "indexing"));
        assert!(!f.allows(1, "other"));
    }
}
