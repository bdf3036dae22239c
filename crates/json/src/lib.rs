//! `kronpriv-json` — a dependency-free JSON layer replacing `serde`/`serde_json` so the
//! workspace builds fully offline.
//!
//! The workspace's serialization needs are modest: the bench harness writes experiment results
//! as JSON documents, and a handful of model types round-trip through JSON in tests. Rather
//! than depending on serde (unavailable without crates.io access), this crate provides:
//!
//! * [`Json`] — an owned JSON value with a compact writer, a pretty writer and a strict parser,
//! * [`ToJson`] / [`FromJson`] — conversion traits implemented for the primitives, `Vec`,
//!   `Option`, arrays, tuples and maps the workspace serializes,
//! * [`impl_json_struct!`] / [`impl_json_enum!`] — declarative macros that stand in for
//!   `#[derive(Serialize, Deserialize)]` on plain structs and fieldless enums.
//!
//! Numbers are emitted with Rust's shortest round-trip float formatting, so
//! `Json::parse(&value.to_json().to_string())` reproduces every finite `f64` exactly.
//! Non-finite floats serialize as `null`, matching `serde_json`'s behaviour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod parse;
mod write;

pub use convert::{FromJson, ToJson};
pub use parse::JsonParseError;

use std::collections::BTreeMap;
use std::fmt;

/// An owned JSON document. Object keys keep insertion order so emitted documents read in the
/// same order as the Rust struct definitions that produced them.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Stored as `f64`, which is exact for the integer ranges the workspace
    /// emits (graph counts fit in 53 bits).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document from text.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        parse::parse(text)
    }

    /// Looks up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write::write_compact(self, &mut out);
        out
    }

    /// Pretty rendering with two-space indentation (the `serde_json::to_string_pretty` look).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write::write_pretty(self, 0, &mut out);
        out
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact_string())
    }
}

/// Serializes a value to compact JSON text (the `serde_json::to_string` shape).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_compact_string()
}

/// Serializes a value to pretty JSON text (the `serde_json::to_string_pretty` shape).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_pretty_string()
}

/// Appends the compact rendering of `value` to `out`: [`Json::to_compact_string`] without a
/// fresh allocation, for callers that render many documents into one buffer.
pub fn push_json(out: &mut String, value: &Json) {
    write::write_compact(value, out);
}

/// Appends `s` as a JSON string literal, escaped exactly as [`Json::String`] renders.
pub fn push_json_str(out: &mut String, s: &str) {
    write::write_string(s, out);
}

/// Appends `x` as a JSON number, rendered exactly as [`Json::Number`] renders.
pub fn push_json_number(out: &mut String, x: f64) {
    write::write_number(x, out);
}

/// Deserializes a value from JSON text (the `serde_json::from_str` shape).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonParseError> {
    T::from_json(&Json::parse(text)?)
}

/// Convenience alias used by callers that want a string-keyed map.
pub type JsonMap = BTreeMap<String, Json>;

/// Implements [`ToJson`] and [`FromJson`] for a plain struct with named public fields — the
/// stand-in for `#[derive(Serialize, Deserialize)]`.
///
/// ```
/// # use kronpriv_json::{impl_json_struct, from_str, to_string};
/// #[derive(Debug, PartialEq)]
/// struct Point { x: f64, y: f64 }
/// impl_json_struct!(Point { x, y });
///
/// let p = Point { x: 1.0, y: -2.5 };
/// let back: Point = from_str(&to_string(&p)).unwrap();
/// assert_eq!(back, p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonParseError> {
                Ok($ty {
                    $( $field: $crate::FromJson::from_json(
                        value.get(stringify!($field)).ok_or_else(|| {
                            $crate::JsonParseError::missing_field(
                                stringify!($ty),
                                stringify!($field),
                            )
                        })?,
                    )?, )+
                })
            }
        }
    };
}

/// Like [`impl_json_struct!`], but a field absent from the parsed object deserializes as JSON
/// `null` instead of erroring — the serde `#[serde(default)]`-on-`Option` shape. Use it for
/// request types whose `Option` fields callers may simply omit; unknown fields are ignored by
/// both macros (serde's default tolerance).
///
/// ```
/// # use kronpriv_json::{impl_json_struct_lenient, from_str};
/// #[derive(Debug, PartialEq)]
/// struct Req { seed: u64, tag: Option<String> }
/// impl_json_struct_lenient!(Req { seed, tag });
///
/// let r: Req = from_str("{\"seed\": 7, \"extra\": true}").unwrap();
/// assert_eq!(r, Req { seed: 7, tag: None });
/// ```
#[macro_export]
macro_rules! impl_json_struct_lenient {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonParseError> {
                Ok($ty {
                    $( $field: $crate::FromJson::from_json(
                        value.get(stringify!($field)).unwrap_or(&$crate::Json::Null),
                    )?, )+
                })
            }
        }
    };
}

/// Like [`impl_json_struct!`], but fields in the `defaults` block may be absent from the
/// parsed object and then take the given default — the serde `#[serde(default)]` shape for
/// non-`Option` fields. This is the wire-compatibility tool for *adding* a field to an
/// established document type: old documents (without the field) keep parsing, new documents
/// round-trip it. Serialization always emits every field, required first, defaulted last.
///
/// ```
/// # use kronpriv_json::{impl_json_struct_with_defaults, from_str, to_string};
/// #[derive(Debug, PartialEq)]
/// struct Opts { size: u64, threads: u64 }
/// impl_json_struct_with_defaults!(Opts {
///     required: { size },
///     defaults: { threads: 0 },
/// });
///
/// let old: Opts = from_str("{\"size\": 7}").unwrap();
/// assert_eq!(old, Opts { size: 7, threads: 0 });
/// let new: Opts = from_str(&to_string(&Opts { size: 7, threads: 4 })).unwrap();
/// assert_eq!(new.threads, 4);
/// ```
#[macro_export]
macro_rules! impl_json_struct_with_defaults {
    ($ty:ident {
        required: { $($field:ident),+ $(,)? },
        defaults: { $($dfield:ident: $default:expr),+ $(,)? } $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                    $( (stringify!($dfield).to_string(), $crate::ToJson::to_json(&self.$dfield)), )+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonParseError> {
                Ok($ty {
                    $( $field: $crate::FromJson::from_json(
                        value.get(stringify!($field)).ok_or_else(|| {
                            $crate::JsonParseError::missing_field(
                                stringify!($ty),
                                stringify!($field),
                            )
                        })?,
                    )?, )+
                    $( $dfield: match value.get(stringify!($dfield)) {
                        Some(raw) => $crate::FromJson::from_json(raw)?,
                        None => $default,
                    }, )+
                })
            }
        }
    };
}

/// Like [`impl_json_struct!`], but splits the fields into a `released` block that serializes
/// and a `redacted` block that **never** does — the carrier for types that must hold a
/// sensitive value in memory (for calibration, testing or diagnostics) without ever letting it
/// cross the `(ε, δ)`-DP release boundary. Serialization emits only the released fields;
/// deserialization fills each redacted field with its stated default, so a parsed value is
/// honest about not knowing the sensitive quantity. `kronpriv-lint`'s `privacy-serialize` rule
/// checks only the `released` block of this macro, which makes it the one sanctioned way to
/// keep a sensitive field on a serializable struct.
///
/// ```
/// # use kronpriv_json::{impl_json_struct_redacted, from_str, to_string};
/// #[derive(Debug)]
/// struct Release { stat: f64, secret: f64 }
/// impl_json_struct_redacted!(Release {
///     released: { stat },
///     redacted: { secret: f64::NAN },
/// });
///
/// let s = to_string(&Release { stat: 1.0, secret: 42.0 });
/// assert!(!s.contains("secret"));
/// let back: Release = from_str(&s).unwrap();
/// assert_eq!(back.stat, 1.0);
/// assert!(back.secret.is_nan());
/// ```
#[macro_export]
macro_rules! impl_json_struct_redacted {
    ($ty:ident {
        released: { $($field:ident),+ $(,)? },
        redacted: { $($rfield:ident: $default:expr),+ $(,)? } $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                ])
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonParseError> {
                Ok($ty {
                    $( $field: $crate::FromJson::from_json(
                        value.get(stringify!($field)).ok_or_else(|| {
                            $crate::JsonParseError::missing_field(
                                stringify!($ty),
                                stringify!($field),
                            )
                        })?,
                    )?, )+
                    // Redacted fields are never read from the document, even if present: a
                    // document cannot smuggle a sensitive value into a parsed struct.
                    $( $rfield: $default, )+
                })
            }
        }
    };
}

/// Implements only [`ToJson`] for a plain struct — for types that cannot round-trip (e.g.
/// `&'static str` fields, which have no owned deserialization target).
#[macro_export]
macro_rules! impl_to_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Object(vec![
                    $( (stringify!($field).to_string(), $crate::ToJson::to_json(&self.$field)), )+
                ])
            }
        }
    };
}

/// Implements [`ToJson`] and [`FromJson`] for a fieldless enum, serialized as the variant name
/// string — the serde external tagging of unit variants.
///
/// ```
/// # use kronpriv_json::{impl_json_enum, from_str, to_string};
/// #[derive(Debug, PartialEq, Clone, Copy)]
/// enum Norm { L1, L2 }
/// impl_json_enum!(Norm { L1, L2 });
///
/// assert_eq!(to_string(&Norm::L2), "\"L2\"");
/// let back: Norm = from_str("\"L1\"").unwrap();
/// assert_eq!(back, Norm::L1);
/// ```
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let name = match self {
                    $( $ty::$variant => stringify!($variant), )+
                };
                $crate::Json::String(name.to_string())
            }
        }

        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonParseError> {
                match value.as_str() {
                    $( Some(stringify!($variant)) => Ok($ty::$variant), )+
                    _ => Err($crate::JsonParseError::unexpected(
                        stringify!($ty),
                        &value.to_compact_string(),
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Nested {
        tag: String,
        values: Vec<f64>,
        flag: Option<bool>,
    }
    impl_json_struct!(Nested { tag, values, flag });

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Kind {
        Alpha,
        Beta,
    }
    impl_json_enum!(Kind { Alpha, Beta });

    #[test]
    fn struct_round_trip_preserves_everything() {
        let v = Nested {
            tag: "a \"quoted\" name\nwith newline".to_string(),
            values: vec![0.1, -1e-12, 3.0, f64::MAX],
            flag: None,
        };
        let text = to_string(&v);
        let back: Nested = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = Nested { tag: "x".into(), values: vec![1.0, 2.0], flag: Some(true) };
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"tag\""));
        assert!(pretty.contains("\"flag\": true"));
        let back: Nested = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn enum_round_trip() {
        for kind in [Kind::Alpha, Kind::Beta] {
            let back: Kind = from_str(&to_string(&kind)).unwrap();
            assert_eq!(back, kind);
        }
        assert!(from_str::<Kind>("\"Gamma\"").is_err());
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = from_str::<Nested>("{\"tag\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("values"), "{err}");
    }

    #[derive(Debug, PartialEq)]
    struct Lenient {
        seed: u64,
        label: Option<String>,
    }
    impl_json_struct_lenient!(Lenient { seed, label });

    #[test]
    fn lenient_structs_default_missing_fields_to_null() {
        let v: Lenient = from_str("{\"seed\": 7}").unwrap();
        assert_eq!(v, Lenient { seed: 7, label: None });
        // Required (non-Option) fields still fail when absent, via the null-type mismatch.
        assert!(from_str::<Lenient>("{\"label\": \"x\"}").is_err());
        // Unknown fields are ignored, and present fields still round-trip.
        let v: Lenient = from_str("{\"seed\": 1, \"label\": \"a\", \"junk\": [1,2]}").unwrap();
        assert_eq!(v, Lenient { seed: 1, label: Some("a".into()) });
        let back: Lenient = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);
    }

    #[derive(Debug, PartialEq)]
    struct Versioned {
        name: String,
        retries: u32,
    }
    impl_json_struct_with_defaults!(Versioned {
        required: { name },
        defaults: { retries: 3 },
    });

    #[test]
    fn defaulted_fields_fill_in_when_absent_and_round_trip_when_present() {
        let old: Versioned = from_str("{\"name\": \"a\"}").unwrap();
        assert_eq!(old, Versioned { name: "a".into(), retries: 3 });
        let v = Versioned { name: "b".into(), retries: 9 };
        let back: Versioned = from_str(&to_string(&v)).unwrap();
        assert_eq!(back, v);
        // Required fields are still required...
        assert!(from_str::<Versioned>("{\"retries\": 1}").is_err());
        // ...and a present-but-mistyped defaulted field is an error, not the default.
        assert!(from_str::<Versioned>("{\"name\": \"a\", \"retries\": \"x\"}").is_err());
    }

    #[test]
    fn integers_survive_exactly() {
        let values: Vec<u64> = vec![0, 1, 1 << 52, (1 << 53) - 1];
        let back: Vec<u64> = from_str(&to_string(&values)).unwrap();
        assert_eq!(back, values);
    }

    /// Regression: integer deserialization must reject fractional, negative-into-unsigned and
    /// out-of-range numbers (serde_json semantics) instead of silently truncating/saturating.
    #[test]
    fn integer_parsing_is_strict() {
        assert!(from_str::<usize>("3.7").is_err());
        assert!(from_str::<u64>("-5").is_err());
        assert!(from_str::<u32>("1e20").is_err());
        assert!(from_str::<i8>("200").is_err());
        // Saturation boundaries: 2^64 and 2^63 round-trip through the saturated MAX in f64, so
        // a bare cast-and-compare would accept them; the bounds check must reject.
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<i64>("9223372036854775808").is_err());
        assert!(from_str::<i64>("-9223372036854775808").is_ok());
        assert_eq!(from_str::<i64>("-5").unwrap(), -5);
        assert_eq!(from_str::<u32>("4294967295").unwrap(), u32::MAX);
        // Floats still accept fractional values, of course.
        assert_eq!(from_str::<f64>("3.7").unwrap(), 3.7);
    }

    #[test]
    fn tuples_and_arrays_serialize_as_json_arrays() {
        let pair = ("KronFit".to_string(), 0.25f64);
        assert_eq!(to_string(&pair), "[\"KronFit\",0.25]");
        let back: (String, f64) = from_str("[\"KronFit\",0.25]").unwrap();
        assert_eq!(back, pair);
        let stats = [1.0f64, 2.0, 3.0, 4.0];
        let back: [f64; 4] = from_str(&to_string(&stats)).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn push_writers_append_exactly_what_the_tree_renders() {
        let doc = Json::Object(vec![
            ("s".to_string(), Json::String("tab\tnl\n\"q\" \u{1}".to_string())),
            ("n".to_string(), Json::Array(vec![Json::Number(3.0), Json::Number(-0.25)])),
        ]);
        let mut out = "prefix ".to_string();
        push_json(&mut out, &doc);
        assert_eq!(out, format!("prefix {}", doc.to_compact_string()));
        let mut out = String::new();
        push_json_str(&mut out, "tab\tnl\n\"q\" \u{1}");
        assert_eq!(out, Json::String("tab\tnl\n\"q\" \u{1}".to_string()).to_compact_string());
        for x in [0.0, -0.0, 42.0, -1.5e-3, 1e300, f64::NAN, f64::INFINITY] {
            let mut out = String::new();
            push_json_number(&mut out, x);
            assert_eq!(out, Json::Number(x).to_compact_string(), "{x}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{'a':1}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Regression: RFC 8259 forbids leading zeros; the parser must be as strict as the
    /// serde_json it replaces.
    #[test]
    fn parser_rejects_leading_zeros() {
        for bad in ["0123", "-007", "[01]", "{\"a\": 00}"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(Json::parse("0").unwrap().as_f64(), Some(0.0));
        assert_eq!(Json::parse("-0.5").unwrap().as_f64(), Some(-0.5));
        assert_eq!(Json::parse("10").unwrap().as_f64(), Some(10.0));
    }

    /// Regression: a degenerate deeply nested document must return an error instead of
    /// overflowing the parser's stack (serde_json guards this with a 128-deep recursion limit).
    #[test]
    fn parser_enforces_a_nesting_depth_limit() {
        let deep_bad = "[".repeat(100_000);
        let err = Json::parse(&deep_bad).unwrap_err();
        assert!(err.to_string().contains("nesting depth"), "{err}");
        // Mixed object/array nesting is counted too.
        let mixed = "{\"a\":[".repeat(80) + "1" + &"]}".repeat(80);
        assert!(Json::parse(&mixed).is_err());
        // Depth within the limit still parses, including siblings after a deep branch
        // (the depth counter must unwind when containers close).
        let ok = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
        assert!(Json::parse("[[1],[2],[3]]").is_ok());
    }

    #[test]
    fn parser_accepts_escapes_and_unicode() {
        let doc = r#"{"s": "tab\tnl\nAé", "neg": -1.5e-3}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "tab\tnl\nAé");
        assert!((v.get("neg").unwrap().as_f64().unwrap() + 0.0015).abs() < 1e-15);
    }
}
