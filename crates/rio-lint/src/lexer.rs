//! A small, self-contained Rust lexer for static analysis.
//!
//! The workspace is offline-vendored, so `rio-lint` cannot lean on an
//! external parser; instead this module hand-rolls the one piece of
//! Rust lexical structure the rules genuinely need to get right:
//! telling *code* apart from *comments and string literals*. It
//! understands
//!
//! * line comments (including `///` and `//!` doc comments),
//! * nested block comments (`/* a /* b */ c */`),
//! * string literals with escapes (`"\""`), byte strings (`b"…"`),
//! * raw strings with any hash depth (`r"…"`, `r#"…"#`, `br##"…"##`),
//! * char literals vs lifetimes (`'a'` vs `'a`), and
//! * raw identifiers (`r#type`).
//!
//! Everything else is an identifier, a number, or a single-character
//! punctuation token. Each token carries the 1-based line it starts
//! on, which is all the rule engine needs to report `file:line:rule`.

/// The coarse token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `unsafe`, `fn`).
    Ident,
    /// A numeric literal (`42`, `0x1f`, `1.5e3`).
    Num,
    /// A `"…"` or `b"…"` string literal, escapes handled.
    Str,
    /// A raw string literal: `r"…"`, `r#"…"#`, `br##"…"##`.
    RawStr,
    /// A `'x'` / `b'\n'` character literal.
    CharLit,
    /// A `'a` lifetime.
    Lifetime,
    /// A `// …` line comment, doc comments included.
    LineComment,
    /// A `/* … */` block comment, nesting handled.
    BlockComment,
    /// Any other single character.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Which class of token this is.
    pub kind: TokKind,
    /// The source text of the token (for `Punct`, one character).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a token stream, preserving comments.
///
/// The lexer never fails: malformed input (an unterminated string or
/// comment) simply consumes to end of file. That is the right behavior
/// for a linter — the compiler will report the real error.
pub fn lex(src: &str) -> Vec<Tok> {
    let cs: Vec<char> = src.chars().collect();
    let n = cs.len();
    let mut toks: Vec<Tok> = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Appends cs[start..end] as one token starting on `tl`.
    let push = |toks: &mut Vec<Tok>, kind: TokKind, cs: &[char], start: usize, end: usize, tl: u32| {
        toks.push(Tok {
            kind,
            text: cs[start..end].iter().collect(),
            line: tl,
        });
    };

    while i < n {
        let c = cs[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < n && cs[i + 1] == '/' {
            let start = i;
            let tl = line;
            while i < n && cs[i] != '\n' {
                i += 1;
            }
            push(&mut toks, TokKind::LineComment, &cs, start, i, tl);
            continue;
        }
        if c == '/' && i + 1 < n && cs[i + 1] == '*' {
            let start = i;
            let tl = line;
            let mut depth = 1usize;
            i += 2;
            while i < n && depth > 0 {
                if cs[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if cs[i] == '/' && i + 1 < n && cs[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if cs[i] == '*' && i + 1 < n && cs[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            push(&mut toks, TokKind::BlockComment, &cs, start, i, tl);
            continue;
        }

        // Raw strings, byte strings, byte chars: r" r#" br" br#" b" b'.
        if c == 'r' || c == 'b' {
            // Position of the first char after the r/b/br prefix.
            let after = if c == 'b' && i + 1 < n && cs[i + 1] == 'r' {
                i + 2
            } else {
                i + 1
            };
            let raw_prefixed = c == 'r' || (c == 'b' && after == i + 2);
            if raw_prefixed {
                // Count hashes, then require an opening quote.
                let mut h = after;
                while h < n && cs[h] == '#' {
                    h += 1;
                }
                if h < n && cs[h] == '"' {
                    let hashes = h - after;
                    let start = i;
                    let tl = line;
                    i = h + 1;
                    // Scan for `"` followed by `hashes` hash marks.
                    loop {
                        if i >= n {
                            break;
                        }
                        if cs[i] == '\n' {
                            line += 1;
                            i += 1;
                            continue;
                        }
                        if cs[i] == '"' && i + hashes < n && cs[i + 1..i + 1 + hashes].iter().all(|&x| x == '#')
                        {
                            i += 1 + hashes;
                            break;
                        }
                        i += 1;
                    }
                    push(&mut toks, TokKind::RawStr, &cs, start, i, tl);
                    continue;
                }
                if c == 'r' && after < n && cs[after] == '#' {
                    // `r#ident` raw identifier: consume as an Ident.
                    let start = i;
                    let tl = line;
                    i = after + 1;
                    while i < n && is_ident_continue(cs[i]) {
                        i += 1;
                    }
                    push(&mut toks, TokKind::Ident, &cs, start, i, tl);
                    continue;
                }
            }
            if c == 'b' && i + 1 < n && cs[i + 1] == '"' {
                // Byte string: fall through to the shared escape scanner.
                let start = i;
                let tl = line;
                i += 2;
                scan_str_body(&cs, n, &mut i, &mut line);
                push(&mut toks, TokKind::Str, &cs, start, i, tl);
                continue;
            }
            if c == 'b' && i + 1 < n && cs[i + 1] == '\'' {
                let start = i;
                let tl = line;
                i += 2;
                scan_char_body(&cs, n, &mut i);
                push(&mut toks, TokKind::CharLit, &cs, start, i, tl);
                continue;
            }
            // Plain identifier starting with r/b.
        }

        if c == '"' {
            let start = i;
            let tl = line;
            i += 1;
            scan_str_body(&cs, n, &mut i, &mut line);
            push(&mut toks, TokKind::Str, &cs, start, i, tl);
            continue;
        }

        if c == '\'' {
            // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`, `'('`).
            let next = cs.get(i + 1).copied();
            let over = cs.get(i + 2).copied();
            let is_char = match next {
                Some('\\') => true,
                Some(x) if is_ident_continue(x) => over == Some('\''),
                Some(_) => true, // '(' etc.
                None => true,
            };
            if is_char {
                let start = i;
                let tl = line;
                i += 1;
                scan_char_body(&cs, n, &mut i);
                push(&mut toks, TokKind::CharLit, &cs, start, i, tl);
            } else {
                let start = i;
                let tl = line;
                i += 1;
                while i < n && is_ident_continue(cs[i]) {
                    i += 1;
                }
                push(&mut toks, TokKind::Lifetime, &cs, start, i, tl);
            }
            continue;
        }

        if is_ident_start(c) {
            let start = i;
            let tl = line;
            while i < n && is_ident_continue(cs[i]) {
                i += 1;
            }
            push(&mut toks, TokKind::Ident, &cs, start, i, tl);
            continue;
        }

        if c.is_ascii_digit() {
            let start = i;
            let tl = line;
            while i < n
                && (is_ident_continue(cs[i]) || (cs[i] == '.' && cs.get(i + 1).is_some_and(|d| d.is_ascii_digit())))
            {
                i += 1;
            }
            push(&mut toks, TokKind::Num, &cs, start, i, tl);
            continue;
        }

        push(&mut toks, TokKind::Punct, &cs, i, i + 1, line);
        i += 1;
    }
    toks
}

/// Consumes a (byte) string body after the opening quote, escapes and
/// embedded newlines included, leaving `i` just past the closing quote.
fn scan_str_body(cs: &[char], n: usize, i: &mut usize, line: &mut u32) {
    while *i < n {
        match cs[*i] {
            '\\' => {
                // A `\` line continuation escapes the newline it ends on.
                *line += u32::from(cs.get(*i + 1) == Some(&'\n'));
                *i += 2;
            }
            '"' => {
                *i += 1;
                return;
            }
            '\n' => {
                *line += 1;
                *i += 1;
            }
            _ => *i += 1,
        }
    }
}

/// Consumes a char-literal body after the opening quote, leaving `i`
/// just past the closing quote.
fn scan_char_body(cs: &[char], n: usize, i: &mut usize) {
    while *i < n {
        match cs[*i] {
            '\\' => *i += 2,
            '\'' => {
                *i += 1;
                return;
            }
            '\n' => return, // unterminated; let the compiler complain
            _ => *i += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn nested_block_comments_hide_code() {
        let src = "/* outer /* HashMap inner */ still comment */ Visible";
        assert_eq!(idents(src), vec!["Visible"]);
        assert_eq!(kinds(src), vec![TokKind::BlockComment, TokKind::Ident]);
    }

    #[test]
    fn raw_strings_hide_quotes_and_comment_markers() {
        let src = r####"let s = r#"HashMap "quoted" // not a comment"#; After"####;
        let ids = idents(src);
        assert!(ids.contains(&"After".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        // The raw string is one token.
        assert_eq!(
            lex(src).iter().filter(|t| t.kind == TokKind::RawStr).count(),
            1
        );
    }

    #[test]
    fn raw_strings_with_deeper_hashes() {
        let src = r#####"r##"ends "# not yet"## Tail"#####;
        assert_eq!(idents(src), vec!["Tail"]);
    }

    #[test]
    fn comment_marker_inside_string_does_not_hide_code() {
        let src = "let s = \"// not a comment\"; HashMap";
        assert_eq!(idents(src), vec!["let", "s", "HashMap"]);
        assert!(lex(src).iter().all(|t| t.kind != TokKind::LineComment));
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let src = "let s = \"a \\\" b // c\"; End";
        assert_eq!(idents(src), vec!["let", "s", "End"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'a'; let n = '\\n'; let p = '('; }";
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::CharLit).count(),
            3
        );
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let src = "b\"bytes // x\" br#\"raw HashMap\"# b'q' Done";
        assert_eq!(idents(src), vec!["Done"]);
    }

    #[test]
    fn multiline_string_advances_line_numbers() {
        let src = "let s = \"line one\nline two\";\nNext";
        let toks = lex(src);
        let next = toks.iter().find(|t| t.text == "Next").unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn line_continuation_in_a_string_advances_line_numbers() {
        let src = "let s = \"one \\\n two\";\nNext";
        let next = lex(src).into_iter().find(|t| t.text == "Next").unwrap();
        assert_eq!(next.line, 3);
    }

    #[test]
    fn line_comment_carries_its_line() {
        let src = "fn a() {}\n// rio-lint marker\nfn b() {}";
        let c = lex(src)
            .into_iter()
            .find(|t| t.kind == TokKind::LineComment)
            .unwrap();
        assert_eq!(c.line, 2);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let src = "let r#type = 1; Next";
        let ids = idents(src);
        assert!(ids.contains(&"r#type".to_string()));
        assert!(ids.contains(&"Next".to_string()));
    }
}
