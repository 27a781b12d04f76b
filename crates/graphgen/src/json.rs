//! The workspace's one JSON reader: a pull parser over a `&str`. Graph
//! files ([`crate::io::from_json`]) and obs logs (`dw_obs::export`) both
//! read through [`Reader`]; each format keeps its own small writer.
//!
//! It reads objects with keys in any order, arrays, unsigned integers,
//! booleans, strings (unescaped; borrowed unless they hold an escape; a
//! `\u` surrogate pair joins into one character, a lone surrogate is
//! refused) and the raw span of any value, so a value the caller does
//! not interpret (`null` included) is skipped or reflected byte for
//! byte. Skipping is one balanced scan that steps over strings without
//! decoding them; it counts brackets instead of recursing (so deep
//! nesting costs no stack) and does not match their kinds. Every error
//! carries the byte offset where it was found.

use std::borrow::Cow;
use std::fmt;

/// A parse error and the byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// What a reader call that consumes a value without returning it gives.
pub type Step = Result<(), JsonError>;

/// A pull reader: each call consumes one value and leaves the position
/// just after it.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(src: &'a str) -> Self {
        Reader { src, pos: 0 }
    }

    /// An error at the current position.
    pub fn err(&self, msg: impl Into<String>) -> JsonError {
        let (msg, offset) = (msg.into(), self.pos);
        JsonError { msg, offset }
    }

    fn rest(&self) -> &'a [u8] {
        &self.src.as_bytes()[self.pos..]
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        while let Some(&b) = self.src.as_bytes().get(self.pos) {
            if !is_ws(b) {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Step {
        match self.eat(b) {
            true => Ok(()),
            false => Err(self.err(format!("expected '{}'", b as char))),
        }
    }

    /// Only whitespace is left.
    pub fn end(&mut self) -> Step {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.err("trailing data after document")),
        }
    }

    /// The comma-separated items between `open` and `close`.
    fn items(&mut self, open: u8, close: u8, mut item: impl FnMut(&mut Self) -> Step) -> Step {
        self.expect(open)?;
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            if !self.eat(b',') {
                return self.expect(close);
            }
        }
    }

    /// An object: `field` is called once per key, in document order,
    /// and must consume that key's value.
    pub fn object(&mut self, mut field: impl FnMut(&mut Self, &str) -> Step) -> Step {
        self.items(b'{', b'}', |r| {
            let key = r.str()?;
            r.expect(b':')?;
            field(r, &key)
        })
    }

    /// An array: `item` is called once per element and must consume it.
    pub fn array(&mut self, item: impl FnMut(&mut Self) -> Step) -> Step {
        self.items(b'[', b']', item)
    }

    /// An unsigned integer (digits only).
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        self.peek();
        let start = self.pos;
        self.pos += self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        match self.slice(start)?.parse() {
            Ok(v) => Ok(v),
            Err(_) if self.pos == start => Err(self.err("expected number")),
            Err(_) => Err(JsonError {
                msg: "number out of range".to_string(),
                offset: start,
            }),
        }
    }

    /// `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        if self.literal(b"true") {
            return Ok(true);
        }
        match self.literal(b"false") {
            true => Ok(false),
            false => Err(self.err("expected boolean")),
        }
    }

    fn literal(&mut self, word: &[u8]) -> bool {
        self.peek();
        let hit = self.rest().starts_with(word);
        self.pos += if hit { word.len() } else { 0 };
        hit
    }

    /// The input from `start` to the current position.
    fn slice(&self, start: usize) -> Result<&'a str, JsonError> {
        let s = self.src.get(start..self.pos);
        s.ok_or_else(|| self.err("value ends inside a character"))
    }

    /// A string, unescaped; borrowed from the input when it holds no
    /// escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out = Cow::Borrowed("");
        loop {
            let run = self.pos;
            let Some(stop) = self.rest().iter().position(|&b| b == b'"' || b == b'\\') else {
                self.pos = self.src.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop;
            out += self.slice(run)?;
            self.pos += 1;
            if self.src.as_bytes()[self.pos - 1] == b'"' {
                return Ok(out);
            }
            out.to_mut().push(self.escape()?);
        }
    }

    /// The character an escape (after its `\`) stands for.
    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self.rest().first().copied();
        self.pos += usize::from(b.is_some());
        Ok(match b {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = self.hex4()?;
                // A high surrogate and the low one escaped after it are
                // one character.
                if (0xD800..0xDC00).contains(&code) && self.rest().starts_with(b"\\u") {
                    self.pos += 2;
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or_else(|| self.err("lone surrogate in \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    /// The four hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self.src.get(self.pos..self.pos + 4);
        let hex = hex.filter(|h| h.bytes().all(|d| d.is_ascii_hexdigit()));
        let hex = hex.ok_or_else(|| self.err("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// Move past a string, stepping over each escape (`\` and the byte
    /// after it) without decoding it.
    fn skip_str(&mut self) -> Step {
        self.expect(b'"')?;
        while let Some(stop) = self.rest().iter().position(|&b| b == b'"' || b == b'\\') {
            self.pos += stop + 1;
            if self.src.as_bytes()[self.pos - 1] == b'"' {
                return Ok(());
            }
            self.pos = (self.pos + 1).min(self.src.len());
        }
        self.pos = self.src.len();
        Err(self.err("unterminated string"))
    }

    /// The next value exactly as spelled (surrounding whitespace
    /// excluded); the reader moves past it.
    pub fn raw(&mut self) -> Result<&'a str, JsonError> {
        self.peek();
        let start = self.pos;
        self.skip()?;
        self.slice(start)
    }

    /// Move past the next value without interpreting it.
    pub fn skip(&mut self) -> Step {
        self.peek();
        let (start, mut depth) = (self.pos, 0usize);
        while let Some(&b) = self.rest().first() {
            match b {
                b'"' => self.skip_str()?,
                b'{' | b'[' => depth += 1,
                b'}' | b']' if depth > 0 => depth -= 1,
                // At depth 0 a delimiter or a space ends a scalar.
                b'}' | b']' | b',' | b':' if depth == 0 => break,
                _ if depth == 0 && is_ws(b) => break,
                _ => {}
            }
            self.pos += usize::from(b != b'"');
            if depth == 0 && b"\"}]".contains(&b) {
                break;
            }
        }
        match (depth, self.pos == start) {
            (0, false) => Ok(()),
            (0, true) => Err(self.err("expected a value")),
            _ => Err(self.err("unterminated value")),
        }
    }
}

fn is_ws(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_read_in_any_key_order_and_skip_the_rest() {
        for doc in [
            r#"{"a":1,"b":[true,null],"c":"x","d":{"e":[]}}"#,
            r#" { "d" : { "e" : [ ] } , "c" : "x" , "b" : [ true , null ] , "a" : 1 } "#,
        ] {
            let (mut r, mut a, mut c, mut b) = (Reader::new(doc), None, None, Vec::new());
            r.object(|r, key| match key {
                "a" => r.u64().map(|v| a = Some(v)),
                "c" => r.str().map(|v| c = Some(v)),
                "b" => r.array(|r| r.raw().map(|v| b.push(v))),
                _ => r.skip(),
            })
            .unwrap();
            r.end().unwrap();
            let want = (Some(1), Some("x"), &["true", "null"][..]);
            assert_eq!((a, c.as_deref(), &b[..]), want);
        }
    }

    #[test]
    fn strings_unescape_and_borrow_when_plain() {
        let plain = Reader::new(r#""plain""#).str();
        assert!(matches!(plain, Ok(Cow::Borrowed("plain"))));
        let s = Reader::new(r#""a \"q\"\n\\ é é\/""#).str().unwrap();
        assert_eq!(s, "a \"q\"\n\\ é é/");
        let pair = Reader::new(r#""\ud83d\ude00""#).str().unwrap();
        assert_eq!(pair, "\u{1f600}");
        for bad in [
            r#""\x""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\u12""#,
            r#""open"#,
            r#""\"#,
        ] {
            assert!(Reader::new(bad).str().is_err(), "{bad}");
        }
    }

    #[test]
    fn raw_spans_every_value_shape_as_spelled() {
        for value in [
            r#"{"x":[1,2],"y":"s}"}"#,
            r#"[3,{"z":4}]"#,
            r#""he\"llo""#,
            r#""\ud83d\ude00""#,
            "42",
            "null",
        ] {
            let doc = format!(r#"{{"v": {value} ,"k":7}}"#);
            let (mut r, mut raw, mut k) = (Reader::new(&doc), None, None);
            r.object(|r, key| match key {
                "v" => r.raw().map(|v| raw = Some(v)),
                _ => r.u64().map(|v| k = Some(v)),
            })
            .unwrap();
            r.end().unwrap();
            assert_eq!((raw, k), (Some(value), Some(7)));
        }
        // A nesting cut short never closes: an error, for `skip` too.
        let cut = r#"{"x":[1,2"#;
        assert!(Reader::new(cut).raw().is_err());
        assert!(Reader::new(cut).skip().is_err());
    }

    #[test]
    fn errors_carry_the_offset() {
        let e = Reader::new("[1, x]")
            .array(|r| r.u64().map(drop))
            .unwrap_err();
        assert_eq!(e.offset, 4);
        let e = Reader::new("99999999999999999999999").u64().unwrap_err();
        assert_eq!(
            (e.offset, e.to_string().contains("out of range")),
            (0, true)
        );
        assert_eq!(Reader::new("  ,").raw().unwrap_err().offset, 2);
        let mut r = Reader::new("{} x");
        r.object(|r, _| r.skip()).unwrap();
        assert_eq!(r.end().unwrap_err().offset, 3);
    }
}
