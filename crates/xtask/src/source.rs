//! Source-file model for the token scans.
//!
//! A scan never sees raw file text directly. Each file is pre-processed
//! into a [`SourceFile`]: a *masked* view where string/char-literal contents
//! and comments are replaced by spaces, so token scans cannot false-positive
//! on text inside literals.
//!
//! The masking pass is a hand-rolled scanner covering the token forms this
//! repository actually uses: line/block comments (nested), string literals
//! with escapes, raw strings `r#".."#`, byte strings, char literals and
//! lifetimes. It intentionally does not parse Rust — it only needs to be
//! right about *where code is*.

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path as shown in findings.
    pub path: String,
    /// Code with comments and literal *contents* blanked to spaces
    /// (delimiters like `"` are preserved), one entry per line.
    pub code: Vec<String>,
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
    /// Masks `text` (typically read from `path`).
    pub fn parse(path: &str, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            code: mask(text).lines().map(str::to_string).collect(),
        }
    }
}

/// The code-only view of `text`: comments and literal contents blanked,
/// line structure kept.
fn mask(text: &str) -> String {
    let bytes: Vec<char> = text.chars().collect();
    let mut code = String::with_capacity(text.len());
    let mut state = State::Normal;
    let mut i = 0usize;

    // Pushes code as is and a comment character as a blank; newlines always
    // survive so the line structure stays aligned.
    let push = |code: &mut String, c: char, is_code: bool| {
        code.push(if is_code || c == '\n' { c } else { ' ' });
    };

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Normal => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    push(&mut code, c, false);
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    push(&mut code, c, false);
                }
                '"' => {
                    state = State::Str;
                    push(&mut code, c, true);
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
                            push(&mut code, opener, true);
                        }
                        i = j;
                        state = State::RawStr(hashes);
                    } else {
                        push(&mut code, c, true);
                    }
                }
                'b' if next == Some('"') => {
                    push(&mut code, c, true);
                    push(&mut code, '"', true);
                    i += 1;
                    state = State::ByteStr;
                }
                '\'' => {
                    // Distinguish char literal from lifetime: a lifetime is
                    // `'ident` NOT followed by a closing quote.
                    let is_lifetime = next.is_some_and(|n| n.is_alphanumeric() || n == '_')
                        && bytes.get(i + 2) != Some(&'\'');
                    push(&mut code, c, true);
                    if !is_lifetime {
                        state = State::Char;
                    }
                }
                _ => push(&mut code, c, true),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Normal;
                }
                push(&mut code, c, false);
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    push(&mut code, c, false);
                    push(&mut code, '/', false);
                    i += 1;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    push(&mut code, c, false);
                    push(&mut code, '*', false);
                    i += 1;
                    state = State::BlockComment(depth + 1);
                } else {
                    push(&mut code, c, false);
                }
            }
            State::Str | State::ByteStr => {
                if c == '\\' {
                    // Skip the escaped character entirely.
                    push(&mut code, ' ', true);
                    if let Some(n) = next {
                        push(&mut code, if n == '\n' { '\n' } else { ' ' }, true);
                        i += 1;
                    }
                } else if c == '"' {
                    push(&mut code, c, true);
                    state = State::Normal;
                } else {
                    push(&mut code, if c == '\n' { '\n' } else { ' ' }, true);
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
                        push(&mut code, c, true);
                        for _ in 0..hashes {
                            push(&mut code, '#', true);
                            i += 1;
                        }
                        state = State::Normal;
                    } else {
                        push(&mut code, ' ', true);
                    }
                } else {
                    push(&mut code, if c == '\n' { '\n' } else { ' ' }, true);
                }
            }
            State::Char => {
                if c == '\\' {
                    push(&mut code, ' ', true);
                    if next.is_some() {
                        push(&mut code, ' ', true);
                        i += 1;
                    }
                } else if c == '\'' {
                    push(&mut code, c, true);
                    state = State::Normal;
                } else {
                    push(&mut code, ' ', true);
                }
            }
        }
        i += 1;
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_strings_and_comments() {
        let src = "let x = \"a == b\"; // trailing == note\nlet y = 1;\n";
        let f = SourceFile::parse("t.rs", src);
        assert!(!f.code[0].contains("=="), "{}", f.code[0]);
        assert!(!f.code[0].contains("note"), "{}", f.code[0]);
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
}
