//! A recursive-descent JSON parser for [`Value`].

use crate::value::{Map, Number, Value};
use crate::Error;

/// The deepest array/object nesting [`Value::parse_json`] accepts,
/// serde_json's default limit. Enveloped run records and manifests nest
/// at most 4 levels and SARIF reports 9; the bound keeps a hostile file
/// from overflowing the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Value {
    /// Parse JSON text into a value tree.
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] naming the byte offset of the first syntax
    /// error, or of the bracket that nests deeper than 128 levels.
    pub fn parse_json(text: &str) -> Result<Value, Error> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(v)
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    /// Parse an array or object one level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would take a sign, as in `\u+041`.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(Error::new("bad \\u escape"));
                            }
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our renderer;
                            // map lone surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // slice of the input, which is already valid UTF-8.
                    // Both ends sit next to an ASCII byte (or at the end of
                    // the input), so both are char boundaries.
                    let end = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |run| self.pos + run);
                    out.push_str(&self.text[self.pos..end]);
                    self.pos = end;
                }
            }
        }
    }

    /// Skip a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - from
    }

    /// A number as RFC 8259 spells it: an optional minus, an integer part
    /// without leading zeros, then an optional fraction and exponent, each
    /// with at least one digit. A float that overflows to ±∞ is refused,
    /// as serde_json refuses it.
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let invalid = |what: &str| Error::new(format!("{what} in number at byte {start}"));
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        match self.digits() {
            0 => return Err(invalid("no digit")),
            1 => {}
            _ if self.bytes[int_start] == b'0' => return Err(invalid("leading zero")),
            _ => {}
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(invalid("no digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(invalid("no digit in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if is_float {
            match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::Number(Number::F(f))),
                Ok(_) => Err(Error::new(format!(
                    "number out of range '{text}' at byte {start}"
                ))),
                Err(_) => Err(Error::new(format!("invalid number '{text}'"))),
            }
        } else if text.starts_with('-') {
            text.parse::<i128>()
                .map(|i| Value::Number(Number::I(i)))
                .map_err(|_| Error::new(format!("invalid integer '{text}'")))
        } else {
            text.parse::<u128>()
                .map(|u| Value::Number(Number::U(u)))
                .map_err(|_| Error::new(format!("invalid integer '{text}'")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let src = r#"{"a":1,"b":[null,true,-2,3.5],"c":"x\ny"}"#;
        let v = Value::parse_json(src).unwrap();
        assert_eq!(v.render_compact(), src);
    }

    #[test]
    fn round_trip_pretty() {
        let src = r#"{"t":"demo","rows":[["1","2"],["3","4"]]}"#;
        let v = Value::parse_json(src).unwrap();
        let pretty = v.render_pretty();
        assert_eq!(Value::parse_json(&pretty).unwrap(), v);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse_json("{").is_err());
        assert!(Value::parse_json("[1,]").is_err());
        assert!(Value::parse_json("12 34").is_err());
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Value::parse_json(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse_json(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.0.contains("at byte 128"), "{err}");
        let objects = "{\"k\":".repeat(MAX_DEPTH) + "{}" + &"}".repeat(MAX_DEPTH);
        assert!(Value::parse_json(&objects).is_err());
        assert!(Value::parse_json(&"[".repeat(200_000)).is_err());
        for bad in [
            "01",
            "-01",
            "00",
            "1.",
            "-1.e5",
            "1e",
            "1E+",
            "-",
            "-.5",
            "1e400",
            "-1e400",
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""\u041""#,
        ] {
            assert!(Value::parse_json(bad).is_err(), "{bad} parsed");
        }
        let err = Value::parse_json("[1e400]").unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }

    #[test]
    fn rfc_numbers_and_escapes_parse() {
        for (text, rendered) in [
            ("0", "0"),
            ("-0", "0"),
            ("0.5", "0.5"),
            ("1e5", "100000.0"),
            ("1E-5", "0.00001"),
            ("-12.25e1", "-122.5"),
            (r#""\u0041\u00e9""#, r#""Aé""#),
        ] {
            let v = Value::parse_json(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.render_compact(), rendered, "{text}");
        }
    }

    #[test]
    fn big_integers_survive() {
        let v = Value::parse_json("1267650600228229401496703205376").unwrap();
        assert_eq!(v.render_compact(), "1267650600228229401496703205376");
    }
}
