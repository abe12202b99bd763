//! A minimal JSON value and writer (the build is offline; the repository's
//! `serde` is a stand-in without a JSON backend).

use std::fmt::Write as _;

/// A JSON value.  Objects keep insertion order so output is reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A measured number, written with all its digits.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN or infinity; a metric that could not be
            // measured is written as null so the reader fails loudly.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                // `{:?}` prints the shortest decimal that round-trips, and
                // always carries a fraction or exponent.
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(key, out);
                    out.push_str(": ");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_every_value_kind() {
        let value = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("ms", Json::Num(1.2034)),
            ("whole", Json::Num(2.0)),
            ("tiny", Json::Num(1.5e-7)),
            ("items", Json::Arr(vec![Json::Int(1), Json::str("a")])),
            ("empty", Json::Arr(Vec::new())),
            ("parent", Json::Null),
        ]);
        assert_eq!(
            value.render(),
            r#"{"correct": true, "attempted": 1000, "ms": 1.2034, "whole": 2.0, "tiny": 1.5e-7, "items": [1, "a"], "empty": [], "parent": null}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let value = Json::str("(*, \"United States\")\n\\tab\t\u{1}");
        assert_eq!(value.render(), r#""(*, \"United States\")\n\\tab\t\u0001""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn measured_numbers_keep_all_their_digits() {
        let x = 0.812_734_561_234_567_8_f64;
        let rendered = Json::Num(x).render();
        assert_eq!(rendered.parse::<f64>().unwrap(), x);
    }
}
