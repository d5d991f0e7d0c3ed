//! The workspace's one JSON codec.
//!
//! Every JSON text the workspace reads or writes goes through this
//! module: tower and shard snapshots, the service and shard-worker
//! protocol lines, the `BENCH_*.json` baselines, and the exporters of
//! this crate.
//!
//! * [`parse`] reads one document into a borrowed [`Value`]. Objects
//!   keep document order as a vector of entries. Numbers keep their raw
//!   source text, so the bench gate compares counters as text and never
//!   round-trips them through a float. Strings borrow from the input
//!   unless they contain an escape.
//! * [`escape_into`] writes a string's escaped form, and
//!   [`push_string`] writes it as a quoted literal.
//!
//! The grammar is RFC 8259 with two deliberate differences. Raw control
//! bytes inside a string are accepted, as every reader of the workspace
//! always accepted them. Nesting deeper than [`MAX_DEPTH`] is rejected,
//! so a hostile line cannot overflow the reader's stack. A `\uXXXX`
//! escape of a high surrogate must be followed by one of a low
//! surrogate, and the pair decodes to one character; a lone half of a
//! pair is an error.

use std::borrow::Cow;
use std::fmt;

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// deepest document the workspace writes nests about a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value, borrowing from the text it was parsed from.
#[derive(Clone, PartialEq, Debug)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"0.4419"`, `"127"`).
    Num(&'a str),
    /// A string with its escapes decoded; borrowed when it had none.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object's entries, in document order. Duplicate keys are kept;
    /// [`Value::get`] finds the first.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Looks up a key in an object; `None` for other variants.
    #[inline]
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The number's raw text, if this is a number.
    #[inline]
    pub fn as_num(&self) -> Option<&'a str> {
        match self {
            Self::Num(raw) => Some(raw),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a number.
    #[inline]
    pub fn as_f64(&self) -> Option<f64> {
        self.as_num().and_then(|raw| raw.parse().ok())
    }

    /// The number as a `u64`, if it is written as plain digits (no sign,
    /// fraction or exponent) and fits.
    #[inline]
    pub fn as_u64(&self) -> Option<u64> {
        let raw = self.as_num().filter(|raw| !raw.is_empty())?;
        raw.bytes().try_fold(0u64, |v, b| {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                return None;
            }
            v.checked_mul(10)?.checked_add(u64::from(digit))
        })
    }

    /// The boolean, if this is one.
    #[inline]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    #[inline]
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object entries, if this is an object.
    #[inline]
    pub fn as_obj(&self) -> Option<&[(Cow<'a, str>, Value<'a>)]> {
        match self {
            Self::Obj(entries) => Some(entries),
            _ => None,
        }
    }

    /// A short name for the variant, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Null => "null",
            Self::Bool(_) => "bool",
            Self::Num(_) => "number",
            Self::Str(_) => "string",
            Self::Arr(_) => "array",
            Self::Obj(_) => "object",
        }
    }
}

/// Why a text is not a JSON document.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Error {
    /// Byte offset where the reader stopped.
    pub pos: usize,
    /// What the reader expected there.
    pub what: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON at byte {}: expected {}", self.pos, self.what)
    }
}

impl std::error::Error for Error {}

/// Parses one complete document. Whitespace may surround it; anything
/// else after it is an error.
///
/// # Errors
///
/// [`Error`] with the byte offset of the first malformation.
pub fn parse(text: &str) -> Result<Value<'_>, Error> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("end of document"));
    }
    Ok(value)
}

/// Appends `s` to `out` with JSON string escaping: quotes, backslashes,
/// and every control character below `0x20` are escaped, so the result
/// never breaks one-object-per-line framing. Each run of bytes that
/// needs no escaping is copied with one `push_str`.
pub fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `i` indexes an ASCII byte, so both slice ends are char
        // boundaries.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Appends `s` as a quoted JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn err(&self, what: &'static str) -> Error {
        Error {
            pos: self.pos,
            what,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, what: &'static str) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    /// One value; `depth` counts the arrays and objects around it.
    fn value(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        match self.peek() {
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Num),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn literal(&mut self, word: &'static str, value: Value<'a>) -> Result<Value<'a>, Error> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("a JSON value"))
        }
    }

    fn nest(&self, depth: usize) -> Result<(), Error> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting at most 128 levels deep"));
        }
        Ok(())
    }

    fn object(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.nest(depth)?;
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "a `:` after the field name")?;
            self.skip_ws();
            entries.push((key, self.value(depth)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("a `,` or the closing `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value<'a>, Error> {
        self.nest(depth)?;
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            // Numbers are the bulk of a tower snapshot. Pushing them in
            // place, rather than moving each through `value`'s `Result`,
            // makes decoding one about a fifth faster.
            if matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
                items.push(Value::Num(self.number()?));
            } else {
                items.push(self.value(depth)?);
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("a `,` or the closing `]`")),
            }
        }
    }

    /// Skips a run of ASCII digits; `what` names the error when the run
    /// is empty.
    fn digits(&mut self, what: &'static str) -> Result<(), Error> {
        let run = self.bytes()[self.pos..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        if run == 0 {
            return Err(self.err(what));
        }
        self.pos += run;
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, as its
    /// source text.
    fn number(&mut self) -> Result<&'a str, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits("a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("a digit after the decimal point")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("a digit in the exponent")?;
        }
        Ok(&self.text[start..self.pos])
    }

    /// A string literal, from its opening quote. Each run up to the next
    /// `"` or `\` is taken whole: borrowed if the literal ends before any
    /// escape, copied with one `push_str` otherwise. Both stop bytes are
    /// ASCII, so every run ends on a char boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"', "a string opening `\"`")?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let start = self.pos;
            self.pos = text.as_bytes()[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map_or(text.len(), |k| start + k);
            let run = &text[start..self.pos];
            match self.peek() {
                None => return Err(self.err("a closing `\"`")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut out) => {
                            out.push_str(run);
                            Cow::Owned(out)
                        }
                    });
                }
                _ => {
                    self.pos += 1;
                    let c = self.escape()?;
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(run);
                    out.push(c);
                }
            }
        }
    }

    /// The character an escape stands for, from the byte after its `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => return self.unicode(),
            _ => return Err(self.err("a valid escape character")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// A `\uXXXX` escape from its `u`, with the low half of a surrogate
    /// pair when the first half is high.
    fn unicode(&mut self) -> Result<char, Error> {
        let at = self.pos;
        let code = self.hex4(at)?;
        if (0xDC00..=0xDFFF).contains(&code) {
            return Err(self.err("a \\u high surrogate before a low surrogate"));
        }
        if !(0xD800..=0xDBFF).contains(&code) {
            self.pos = at + 5;
            return Ok(char::from_u32(code).expect("why: a non-surrogate BMP code point is a char"));
        }
        // Standard encoders (e.g. `json.dumps` with `ensure_ascii`) spell
        // a non-BMP character as a \uXXXX\uXXXX pair.
        let pair = self.err("a \\u low surrogate completing the pair");
        if self.bytes().get(at + 5..at + 7) != Some(b"\\u") {
            return Err(pair);
        }
        let low = self.hex4(at + 6)?;
        if !(0xDC00..=0xDFFF).contains(&low) {
            return Err(pair);
        }
        self.pos = at + 11;
        let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        Ok(char::from_u32(scalar).expect("why: a combined surrogate pair lands in a valid plane"))
    }

    /// The four hex digits after the `u` at `at`.
    fn hex4(&self, at: usize) -> Result<u32, Error> {
        let err = Error {
            pos: at,
            what: "four hex digits after \\u",
        };
        let hex = self.bytes().get(at + 1..at + 5).ok_or(err)?;
        hex.iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            .ok_or(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structure() {
        let v = parse(r#"{"a": 1, "b": [true, null, "x\ny"], "c": -0.25}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some("1"));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], Value::Bool(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-0.25));
    }

    #[test]
    fn preserves_object_order_and_raw_number_text() {
        let v = parse(r#"{"z": 1.50, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v.as_obj().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["z", "a"]);
        // "1.50" is NOT normalized to "1.5".
        assert_eq!(v.get("z").unwrap().as_num(), Some("1.50"));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_input() {
        for bad in [
            "{} x",
            r#"{"a": }"#,
            "[1, 2",
            "[1,]",
            "{\"a\":1,}",
            "",
            "  ",
            "nope",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse("nope").unwrap_err();
        assert_eq!(err.pos, 0);
        assert!(err.to_string().contains("byte 0"));
        assert_eq!(parse(" [1] \n").unwrap(), Value::Arr(vec![Value::Num("1")]));
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for good in [
            "0",
            "-0",
            "7",
            "-12",
            "0.5",
            "1.50",
            "1e5",
            "1E+5",
            "2.5e-3",
            "18446744073709551616",
        ] {
            assert_eq!(parse(good).unwrap(), Value::Num(good), "{good}");
        }
        for bad in [
            "007", "01", "1.", "-.5", ".5", "-", "+1", "1e", "1e+", "0x1", "1.e5", "--1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn as_u64_takes_plain_digits_that_fit() {
        let u = |text: &str| parse(text).unwrap().as_u64();
        assert_eq!(u("0"), Some(0));
        assert_eq!(u("18446744073709551615"), Some(u64::MAX));
        for not_u64 in [
            "18446744073709551616",
            "-1",
            "-0",
            "1.0",
            "1e3",
            "\"1\"",
            "true",
        ] {
            assert_eq!(u(not_u64), None, "{not_u64}");
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let text = r#"["plain π", "tab\there", "\b\f\/"]"#;
        let v = parse(text).unwrap();
        let items = v.as_arr().unwrap();
        assert!(matches!(&items[0], Value::Str(Cow::Borrowed("plain π"))));
        assert!(matches!(&items[1], Value::Str(Cow::Owned(s)) if s == "tab\there"));
        assert_eq!(items[2].as_str(), Some("\u{8}\u{c}/"));
        // Raw control bytes inside a string stay accepted.
        assert_eq!(parse("\"a\u{1}\tb\"").unwrap().as_str(), Some("a\u{1}\tb"));
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_rejected() {
        // Python: json.dumps("😀") == '"\\ud83d\\ude00"'.
        let v = parse("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1f600} ok"));
        for (bad, what) in [
            ("\"\\ud83d\"", "a \\u low surrogate completing the pair"),
            ("\"\\ud83d x\"", "a \\u low surrogate completing the pair"),
            (
                "\"\\ud83d\\u0041\"",
                "a \\u low surrogate completing the pair",
            ),
            ("\"\\ude00\"", "a \\u high surrogate before a low surrogate"),
            ("\"\\u12\"", "four hex digits after \\u"),
            ("\"\\u+123\"", "four hex digits after \\u"),
        ] {
            assert_eq!(parse(bad), Err(Error { pos: 2, what }), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().pos, MAX_DEPTH);
        // A hostile line far deeper than any stack is a typed error.
        assert!(parse(&"{\"a\":[".repeat(100_000)).is_err());
    }

    #[test]
    fn round_trips_the_committed_baselines() {
        for name in [
            "BENCH_obs.json",
            "BENCH_re_engine.json",
            "BENCH_curves.json",
        ] {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).expect("baseline exists");
            let v = parse(&text).expect("baseline parses");
            assert!(!v.as_obj().expect("top-level object").is_empty());
        }
    }

    /// The char-by-char escaper the run-copying [`escape_into`] replaced:
    /// the reference it must reproduce byte for byte.
    fn escape_into_by_char(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    /// The char-by-char string scanner the run-copying
    /// `Parser::string` replaced: same accepted language, same errors,
    /// same positions.
    fn string_by_char(text: &str, pos: &mut usize) -> Result<String, Error> {
        let bytes = text.as_bytes();
        let err = |pos: usize, what| Error { pos, what };
        let hex4 = |at: usize| -> Result<u32, Error> {
            let hex = text
                .get(at + 1..at + 5)
                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                .ok_or(err(at, "four hex digits after \\u"))?;
            Ok(u32::from_str_radix(hex, 16).unwrap())
        };
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "a string opening `\"`"));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(err(*pos, "a closing `\"`")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = hex4(*pos)?;
                            if (0xD800..=0xDBFF).contains(&code) {
                                let pair = err(*pos, "a \\u low surrogate completing the pair");
                                if bytes.get(*pos + 5) != Some(&b'\\')
                                    || bytes.get(*pos + 6) != Some(&b'u')
                                {
                                    return Err(pair);
                                }
                                let low = hex4(*pos + 6)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(pair);
                                }
                                let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                out.push(char::from_u32(scalar).unwrap());
                                *pos += 10;
                            } else {
                                let c = char::from_u32(code).ok_or(err(
                                    *pos,
                                    "a \\u high surrogate before a low surrogate",
                                ))?;
                                out.push(c);
                                *pos += 4;
                            }
                        }
                        _ => return Err(err(*pos, "a valid escape character")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    let c = text[*pos..].chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// Seeded strings built from every piece the two fast paths treat
    /// specially: each escape (valid and not), the shard wire's
    /// `\u{1e}`/`\u{1f}` separators, raw control bytes, non-ASCII text,
    /// surrogate-pair escapes and lone surrogate halves.
    fn seeded_strings(seed: u64, count: usize) -> Vec<String> {
        const PIECES: &[&str] = &[
            "a",
            "plain text ",
            "0,1;2",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{7}",
            "\u{8}",
            "\u{c}",
            "\u{1e}",
            "\u{1f}",
            "\u{7f}",
            "π",
            "日本",
            "\u{1f600}",
            "\\\"",
            "\\\\",
            "\\/",
            "\\b",
            "\\f",
            "\\n",
            "\\r",
            "\\t",
            "\\u0041",
            "\\u00e9",
            "\\u001e",
            "\\u001F",
            "\\ud83d\\ude00",
            "\\uD83D\\uDE00",
            "\\ud83d",
            "\\ude00",
            "\\ud83d x",
            "\\ud83d\\u0041",
            "\\u12",
            "\\u+123",
            "\\x",
            "\\",
        ];
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let len = (next() % 12) as usize;
                (0..len)
                    .map(|_| PIECES[(next() % PIECES.len() as u64) as usize])
                    .collect()
            })
            .collect()
    }

    #[test]
    fn run_copying_escaper_matches_the_char_by_char_reference() {
        for seed in 1..=4 {
            for s in seeded_strings(seed, 500) {
                let (mut fast, mut slow) = (String::from("x"), String::from("x"));
                escape_into(&mut fast, &s);
                escape_into_by_char(&mut slow, &s);
                assert_eq!(fast, slow, "{s:?}");
                // Whatever it escapes, the reader reads back.
                let mut literal = String::new();
                push_string(&mut literal, &s);
                assert_eq!(&literal[1..literal.len() - 1], &fast[1..]);
                assert_eq!(parse(&literal).unwrap().as_str(), Some(s.as_str()));
            }
        }
    }

    #[test]
    fn run_copying_string_scanner_matches_the_char_by_char_reference() {
        for seed in 1..=4 {
            for s in seeded_strings(seed, 500) {
                // Raw (possibly malformed or unterminated) and escaped
                // spellings, with and without a closing quote.
                let mut escaped = String::new();
                escape_into(&mut escaped, &s);
                for text in [
                    format!("\"{s}"),
                    format!("\"{s}\""),
                    format!("\"{escaped}"),
                    format!("\"{escaped}\" tail"),
                ] {
                    let mut fast = Parser {
                        text: &text,
                        pos: 0,
                    };
                    let mut slow_pos = 0;
                    let fast_out = fast.string().map(Cow::into_owned);
                    let slow_out = string_by_char(&text, &mut slow_pos);
                    assert_eq!(fast_out, slow_out, "{text:?}");
                    if fast_out.is_ok() {
                        assert_eq!(fast.pos, slow_pos, "{text:?}");
                    }
                }
            }
        }
    }
}
