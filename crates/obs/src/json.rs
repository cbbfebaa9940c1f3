//! The workspace's one JSON codec (the offline build vendors a no-op
//! `serde`): the fleet's trace and metrics files, the recorded
//! `BENCH_recovery.json` and every reader of them go through [`parse`] and
//! [`Value`]. Objects keep insertion order, numbers are `f64` at full
//! precision (every integer below 2^53 exactly), strings escape and
//! unescape exactly, and [`Json`] stores a struct as an object keyed by its
//! fields.

use std::fmt::Write as _;

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, its members in order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object, read as a `T`.
    pub fn field<T: Json>(&self, key: &str) -> Result<T, String> {
        let found = match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key),
            _ => None,
        };
        let (_, value) = found.ok_or_else(|| format!("missing field {key}"))?;
        T::from_value(value).map_err(|error| format!("field {key}: {error}"))
    }

    /// Indented serialization, two spaces a level, with a final newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out + "\n"
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (brackets, items): ([char; 2], Vec<(Option<&str>, &Value)>) = match self {
            Value::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            // `{}` prints the shortest digits that read back to the same
            // f64, never an exponent, and whole numbers without a `.0`.
            // JSON has no NaN or infinity: those are written as `null`.
            Value::Num(n) if n.is_finite() => return write!(out, "{n}").expect("write"),
            Value::Null | Value::Num(_) => return out.push_str("null"),
            Value::Str(s) => return quote(out, s),
            Value::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Value::Obj(pairs) => (
                ['{', '}'],
                pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let pad = "  ".repeat(depth);
        out.push(brackets[0]);
        for (i, (key, value)) in items.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            write!(out, "{comma}\n{pad}  ").expect("write");
            if let Some(key) = key {
                quote(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if !items.is_empty() {
            write!(out, "\n{pad}").expect("write");
        }
        out.push(brackets[1]);
    }
}

/// JSON's two-character escapes: `\` and the character of `ESCAPED`
/// stands for the character of `RAW` at the same position.
const ESCAPED: &str = "\"\\/bfnrt";
const RAW: &str = "\"\\/\u{8}\u{c}\n\r\t";

/// Writes `text` as a quoted JSON string; [`Parser::string`] inverts it.
fn quote(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match RAW.find(c) {
            Some(at) if c != '/' => out.extend(['\\', ESCAPED.as_bytes()[at] as char]),
            _ if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write"),
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// A type stored as one JSON value.
pub trait Json: Sized {
    /// The value that stores `self`.
    fn to_value(&self) -> Value;
    /// Reads back what [`Json::to_value`] stored.
    fn from_value(value: &Value) -> Result<Self, String>;
}

impl Json for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(value.clone())
    }
}

impl Json for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Num(n) => Ok(*n),
            other => Err(format!("{other:?} is not a number")),
        }
    }
}

/// Counts are whole, non-negative numbers.
macro_rules! json_count {
    ($($count:ty),*) => {$(
        impl Json for $count {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
            fn from_value(value: &Value) -> Result<Self, String> {
                let n = f64::from_value(value)?;
                let whole = n >= 0.0 && n.fract() == 0.0;
                whole.then_some(n as $count).ok_or_else(|| format!("{n} is not a count"))
            }
        }
    )*};
}
json_count!(u64, usize);

impl Json for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("{other:?} is not a string")),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(T::to_value).collect())
    }
    fn from_value(value: &Value) -> Result<Self, String> {
        match value {
            Value::Arr(items) => items.iter().map(T::from_value).collect(),
            other => Err(format!("{other:?} is not an array")),
        }
    }
}

/// Implements [`Json`] for a struct: an object with one key per listed
/// field, in the listed order, named as the field or as the `"key" =`
/// before it. Reading fails on a missing field.
#[macro_export]
macro_rules! json_record {
    (@key $key:literal $field:ident) => { $key };
    (@key $field:ident) => { stringify!($field) };
    ($record:ty { $($($key:literal =)? $field:ident),* $(,)? }) => {
        impl $crate::json::Json for $record {
            fn to_value(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![$((
                    $crate::json_record!(@key $($key)? $field).to_string(),
                    $crate::json::Json::to_value(&self.$field),
                ),)*])
            }
            fn from_value(value: &$crate::json::Value) -> Result<Self, String> {
                Ok(Self {
                    $($field: value.field($crate::json_record!(@key $($key)? $field))?,)*
                })
            }
        }
    };
}

/// Parses one JSON document; anything but whitespace after it is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut parser = Parser { text, at: 0 };
    let value = parser.value()?;
    match parser.peek() {
        None => Ok(value),
        Some(_) => parser.fail("trailing bytes"),
    }
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at offset {}", self.at))
    }

    /// Skips whitespace; the character after it, not consumed.
    fn peek(&mut self) -> Option<char> {
        let rest = &self.text[self.at..];
        self.at += rest.len() - rest.trim_start_matches([' ', '\n', '\r', '\t']).len();
        self.text[self.at..].chars().next()
    }

    /// Consumes `token` after any whitespace, or fails.
    fn eat(&mut self, token: &str) -> Result<(), String> {
        self.peek();
        if !self.text[self.at..].starts_with(token) {
            return self.fail(&format!("expected {token:?}"));
        }
        self.at += token.len();
        Ok(())
    }

    /// The members of an array or object, `item` parsing one.
    fn items<T>(
        &mut self,
        [open, close]: [&str; 2],
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        while self.eat(close).is_err() {
            if !items.is_empty() {
                self.eat(",")?;
            }
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('[') => Ok(Value::Arr(self.items(["[", "]"], Self::value)?)),
            Some('{') => Ok(Value::Obj(self.items(["{", "}"], |parser| {
                let key = parser.string()?;
                parser.eat(":")?;
                Ok((key, parser.value()?))
            })?)),
            Some('n') => self.eat("null").map(|()| Value::Null),
            Some('t') => self.eat("true").map(|()| Value::Bool(true)),
            Some('f') => self.eat("false").map(|()| Value::Bool(false)),
            _ => {
                let rest = &self.text[self.at..];
                let numeric = |c: char| "0123456789+-.eE".contains(c);
                let len = rest.find(|c| !numeric(c)).unwrap_or(rest.len());
                let n = rest[..len].parse().or_else(|_| self.fail("bad value"))?;
                self.at += len;
                Ok(Value::Num(n))
            }
        }
    }

    /// A quoted string, unescaping what [`quote`] wrote and the other JSON
    /// escapes: `\/`, and any `\u` of the basic multilingual plane (the
    /// writer puts every other character in as UTF-8).
    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let Some(end) = rest.find(['"', '\\']) else {
                return self.fail("unterminated string");
            };
            out.push_str(&rest[..end]);
            self.at += end + 1;
            if rest[end..].starts_with('"') {
                return Ok(out);
            }
            let escape = rest[end + 1..].chars().next();
            let hex = rest.get(end + 2..end + 6);
            let hex = hex.filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
            let (c, len) = match escape.and_then(|escape| ESCAPED.find(escape)) {
                Some(at) => (RAW[at..].chars().next(), 1),
                None if escape == Some('u') => (
                    hex.and_then(|hex| char::from_u32(u32::from_str_radix(hex, 16).ok()?)),
                    5,
                ),
                None => (None, 1),
            };
            out.push(c.map_or_else(|| self.fail("bad escape"), Ok)?);
            self.at += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip_through_the_writer() {
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let hostile = Value::Str("a \"quoted\" {braced} back\\slash\t\n é".into());
        let value = obj(vec![
            ("flag", Value::Bool(true)),
            ("count", 12_288usize.to_value()),
            ("rate", 581.203_456_789_123_4.to_value()),
            ("none", Value::Null),
            (
                "rows",
                Value::Arr(vec![
                    obj(vec![("name", hostile)]),
                    Value::Arr(vec![]),
                    obj(vec![]),
                ]),
            ),
        ]);
        assert_eq!(parse(&value.to_pretty()), Ok(value));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(1000.0.to_value().to_pretty(), "1000\n");
        assert_eq!((0.1 + 0.2).to_value().to_pretty(), "0.30000000000000004\n");
        assert_eq!(f64::NAN.to_value().to_pretty(), "null\n");
        let measured = 3.141_592_653_589_793e3;
        assert_eq!(
            parse(&measured.to_value().to_pretty()),
            Ok(Value::Num(measured))
        );
    }

    #[test]
    fn every_escape_decodes() {
        let text = r#""\" \\ \/ \b \f \n \r \t \u0009 \u00e9 \u20AC""#;
        assert_eq!(
            parse(text),
            Ok(Value::Str("\" \\ / \u{8} \u{c} \n \r \t \t é €".into()))
        );
        let control = Value::Str("\u{1}\u{1f}".into());
        assert_eq!(parse(&control.to_pretty()), Ok(control));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            // truncated input
            "",
            "{",
            "{\"a\": 1",
            "[1, 2",
            "tru",
            // trailing bytes
            "{\"a\": 1} x",
            "[] []",
            // unterminated string
            "\"open",
            "{\"a\": \"open}",
            // bad escape
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud800\"",
            // structure
            "{\"a\" 1}",
            "[1,]",
            "{,}",
            "-",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[derive(Debug, PartialEq)]
    struct Row {
        name: String,
        count: u64,
        rates: Vec<f64>,
    }
    json_record!(Row { name, count, rates });

    #[test]
    fn records_store_their_fields_by_name() {
        let row = Row {
            name: "x".into(),
            count: 3,
            rates: vec![0.5, 2.0],
        };
        let text = row.to_value().to_pretty();
        assert_eq!(
            text,
            "{\n  \"name\": \"x\",\n  \"count\": 3,\n  \"rates\": [\n    0.5,\n    2\n  ]\n}\n"
        );
        assert_eq!(parse(&text).and_then(|v| Row::from_value(&v)), Ok(row));
        let read = |text: &str| parse(text).and_then(|v| Row::from_value(&v)).unwrap_err();
        assert_eq!(read(r#"{"name": "x", "count": 3}"#), "missing field rates");
        assert!(read(r#"{"name": "x", "count": 2.5, "rates": []}"#).starts_with("field count:"));
        assert!(read(r#"{"name": 1, "count": 2, "rates": []}"#).contains("not a string"));
    }

    /// The committed baseline is a file the codec must read.
    #[test]
    fn committed_baselines_parse() {
        let recovery = parse(include_str!("../../../BENCH_recovery.json")).unwrap();
        assert_eq!(recovery.field::<u64>("evictions"), Ok(1));
        assert_eq!(recovery.field::<u64>("rejoins"), Ok(1));
    }
}
