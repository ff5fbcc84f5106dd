//! Minimal hand-rolled JSON emission.
//!
//! The wire protocol is line-delimited JSON and every payload is flat or
//! one level deep, so a tiny builder beats pulling in a full serializer.

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Incremental `{...}` object builder.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    /// Start an empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
        self
    }

    /// Add a string field.
    pub fn str(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(val));
        self.buf.push('"');
        self
    }

    /// Add a numeric field.
    pub fn num(&mut self, key: &str, val: f64) -> &mut Self {
        self.key(key);
        let rendered = num(val);
        self.buf.push_str(&rendered);
        self
    }

    /// Add an integer field (exact, no float formatting).
    pub fn int(&mut self, key: &str, val: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&val.to_string());
        self
    }

    /// Add a boolean field.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if val { "true" } else { "false" });
        self
    }

    /// Add a field whose value is already-rendered JSON (array, object).
    pub fn raw(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(val);
        self
    }

    /// Close the object and return the JSON text.
    pub fn finish(&mut self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Render a JSON array from rendered element strings.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut buf = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        buf.push_str(&item);
    }
    buf.push(']');
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_flat_objects() {
        let s = Obj::new()
            .str("name", "a\"b")
            .num("x", 1.5)
            .int("n", 7)
            .bool("ok", true)
            .finish();
        assert_eq!(s, r#"{"name":"a\"b","x":1.5,"n":7,"ok":true}"#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(Obj::new().num("x", f64::NAN).finish(), r#"{"x":null}"#);
    }

    #[test]
    fn arrays_and_raw_nesting() {
        let arr = array(vec!["1".to_string(), "2".to_string()]);
        assert_eq!(arr, "[1,2]");
        assert_eq!(Obj::new().raw("xs", &arr).finish(), r#"{"xs":[1,2]}"#);
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(escape("a\nb\t\u{1}"), "a\\nb\\t\\u0001");
    }
}
