//! The crate's one JSON reader, and the field lists that drive both
//! directions of every `BENCH.json` cell.
//!
//! [`read`] is a recursive-descent parser of the JSON grammar into a
//! [`Value`] tree (the build vendors no JSON dependency). Nothing else
//! in the crate walks JSON text, so a malformed or hostile file is an
//! `Err` naming a byte offset — never a panic or a silent mis-scan.
//! A [`Record`] spells a flat object's fields once; the writer, the
//! reader and the cell identity ([`Record::key_label`]) all walk it.

use std::fmt::Debug;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits `u64`, kept exact.
    Int(u64),
    /// Any other (finite) number.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object (`None` for any other value).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Nesting depth beyond which [`read`] gives up, so that a hostile
/// `[[[[…` cannot exhaust the stack.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document. Trailing non-whitespace, `NaN` /
/// `Infinity`, numbers that overflow to infinity, `\u` escapes naming
/// surrogate halves and nesting deeper than a fixed bound are errors;
/// every error names the byte offset it was detected at.
pub fn read(text: &str) -> Result<Value, String> {
    let mut r = Reader { text, at: 0 };
    let v = r.value(0).and_then(|v| match r.peek() {
        None => Ok(v),
        Some(_) => Err("trailing characters after the document"),
    });
    v.map_err(|what| format!("{what} at byte {}", r.at))
}

struct Reader<'a> {
    text: &'a str,
    /// Where the next token (or the error) is. Always on a character
    /// boundary: only ASCII is stepped over bytewise, string contents
    /// are skipped by `str::find`.
    at: usize,
}

impl Reader<'_> {
    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
        bytes.get(self.at).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.at += hit as usize;
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, &'static str> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep");
        }
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                let close = if open == b'[' { b']' } else { b'}' };
                self.at += 1;
                let (mut members, mut items) = (Vec::new(), Vec::new());
                while !self.eat(close) {
                    if members.len() + items.len() > 0 && !self.eat(b',') {
                        return Err("expected ',' or a closing bracket");
                    }
                    if open == b'[' {
                        items.push(self.value(depth + 1)?);
                    } else {
                        let name = self.string()?;
                        if !self.eat(b':') {
                            return Err("expected ':'");
                        }
                        members.push((name, self.value(depth + 1)?));
                    }
                }
                Ok(if open == b'[' {
                    Value::Array(items)
                } else {
                    Value::Object(members)
                })
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                let rest = &self.text[self.at..];
                let word = ["true", "false", "null"]
                    .into_iter()
                    .find(|w| rest.starts_with(w));
                let word = word.ok_or("expected a value")?;
                self.at += word.len();
                Ok(if word == "null" {
                    Value::Null
                } else {
                    Value::Bool(word == "true")
                })
            }
            None => Err("unexpected end of document"),
        }
    }

    fn string(&mut self) -> Result<String, &'static str> {
        if !self.eat(b'"') {
            return Err("expected a string");
        }
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let stop = rest.find(|c: char| c == '"' || c == '\\' || c < ' ');
            let stop = stop.ok_or("unterminated string")?;
            out.push_str(&rest[..stop]);
            self.at += stop + 1;
            match (rest.as_bytes()[stop], rest.as_bytes().get(stop + 1)) {
                (b'"', _) => return Ok(out),
                (b'\\', Some(b'u')) => {
                    let hex = rest.get(stop + 2..stop + 6).filter(|h| !h.starts_with('+'));
                    let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                    out.push(code.and_then(char::from_u32).ok_or("invalid \\u escape")?);
                    self.at += 5;
                }
                (b'\\', Some(c)) => {
                    let known = b"\"\\/bfnrt".iter().position(|e| e == c);
                    let known = known.ok_or("invalid escape")?;
                    out.push(b"\"\\/\x08\x0c\n\r\t"[known] as char);
                    self.at += 1;
                }
                _ => return Err("control character in string"),
            }
        }
    }

    /// JSON's number grammar is stricter than Rust's float parser: no
    /// leading `+` or zeros, digits on both sides of a `.`.
    fn number(&mut self) -> Result<Value, &'static str> {
        let rest = &self.text[self.at..];
        let len = rest.find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'));
        let token = &rest[..len.unwrap_or(rest.len())];
        let digits = token.strip_prefix('-').unwrap_or(token);
        let int_len = digits.bytes().take_while(u8::is_ascii_digit).count();
        let bare_dot = token.ends_with('.') || token.contains(".e") || token.contains(".E");
        if int_len == 0 || (int_len > 1 && digits.starts_with('0')) || bare_dot {
            return Err("malformed number");
        }
        let v = match (token.parse::<u64>(), token.parse::<f64>()) {
            (Ok(n), _) => Value::Int(n),
            (_, Ok(x)) if x.is_finite() => Value::Num(x),
            _ => return Err("malformed or out-of-range number"),
        };
        self.at += token.len();
        Ok(v)
    }
}

/// A typed, writable view of one field of a [`Record`].
pub enum Slot<'a> {
    /// A string (written escaped).
    Str(&'a mut String),
    /// A count.
    Int(&'a mut u64),
    /// A float and the decimals it is printed with.
    Float(&'a mut f64, usize),
}

/// One entry of a field list: the JSON member name; for a string field
/// that is part of the cell's identity, the text that introduces its
/// value in [`Record::key_label`]; and the accessor.
pub struct Field<R>(
    pub &'static str,
    pub Option<&'static str>,
    pub fn(&mut R) -> Slot<'_>,
);

/// A flat JSON object whose members are spelled once, in document
/// order, for the writer, the reader and the cell identity to walk.
pub trait Record: Clone + Default + Debug + 'static {
    /// The field list.
    const FIELDS: &'static [Field<Self>];

    /// The identity baseline and current cells are matched on, which is
    /// also what reports call the cell: each key field's intro and
    /// value. An empty key is left out, its intro with it.
    fn key_label(&self) -> String {
        let (mut rec, mut label) = (self.clone(), String::new());
        for Field(_, intro, slot) in Self::FIELDS {
            if let (Some(intro), Slot::Str(s)) = (intro, slot(&mut rec)) {
                if !s.is_empty() {
                    label.push_str(intro);
                    label.push_str(s);
                }
            }
        }
        label
    }
}

impl Slot<'_> {
    /// Appends the value as JSON: strings quoted and escaped, floats at
    /// their printed precision.
    fn write(self, out: &mut String) {
        match self {
            Slot::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' | '\\' => out.extend(['\\', c]),
                        c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Slot::Int(n) => out.push_str(&n.to_string()),
            Slot::Float(x, p) => out.push_str(&format!("{:.p$}", *x)),
        }
    }

    /// Stores `v`, or says what kind of value was expected.
    fn set(self, v: &Value) -> Result<(), &'static str> {
        match (self, v) {
            (Slot::Str(s), Value::Str(v)) => *s = v.clone(),
            (Slot::Int(n), Value::Int(v)) => *n = *v,
            (Slot::Float(x, _), Value::Int(v)) => *x = *v as f64,
            (Slot::Float(x, _), Value::Num(v)) => *x = *v,
            (Slot::Str(_), _) => return Err("a string"),
            (Slot::Int(_), _) => return Err("an integer"),
            (Slot::Float(..), _) => return Err("a number"),
        }
        Ok(())
    }
}

/// Appends `rec`'s members as comma-separated `"name": value` pairs.
pub(crate) fn write_members<R: Record>(out: &mut String, rec: &R) {
    let mut rec = rec.clone();
    for (i, Field(name, _, slot)) in R::FIELDS.iter().enumerate() {
        out.push_str(if i > 0 { ", " } else { "" });
        out.push_str(&format!("\"{name}\": "));
        slot(&mut rec).write(out);
    }
}

/// Reads a record out of the object `obj`, called `ctx` in errors.
pub(crate) fn fill<R: Record>(obj: &Value, ctx: &str) -> Result<R, String> {
    let mut rec = R::default();
    for Field(name, _, slot) in R::FIELDS {
        let v = obj
            .get(name)
            .ok_or_else(|| format!("missing field \"{name}\" in {ctx}"))?;
        slot(&mut rec)
            .set(v)
            .map_err(|kind| format!("field \"{name}\" in {ctx} is not {kind}"))?;
    }
    Ok(rec)
}
