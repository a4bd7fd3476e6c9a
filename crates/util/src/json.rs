//! A hand-rolled JSON object serializer — just enough for the workspace's
//! JSON-lines reports, with correct string escaping and deterministic
//! number formatting (no external dependencies, per the hermetic-build
//! rule). Promoted out of `lpmem-bench` so the sweep engine and the
//! design-space explorer serialize through the same code path and their
//! reports stay byte-comparable.

/// An in-progress JSON object; builder-style, finished with
/// [`finish`](JsonObject::finish).
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, k);
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a float field. Finite values use Rust's shortest-roundtrip
    /// formatting (deterministic for a given value); non-finite values
    /// become `null` (JSON has no NaN/Infinity).
    pub fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Finishes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_flat_object_in_insertion_order() {
        let s = JsonObject::new()
            .str("a", "x")
            .u64("b", 7)
            .f64("c", 0.5)
            .finish();
        assert_eq!(s, r#"{"a":"x","b":7,"c":0.5}"#);
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn escapes_strings_and_rejects_non_finite_floats() {
        let s = JsonObject::new().str("k", "a\"b\\c\nd\u{1}\te").finish();
        assert_eq!(s, "{\"k\":\"a\\\"b\\\\c\\nd\\u0001\\te\"}");
        let s = JsonObject::new()
            .f64("x", f64::NAN)
            .f64("y", f64::INFINITY)
            .finish();
        assert_eq!(s, r#"{"x":null,"y":null}"#);
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        // Shortest-roundtrip formatting is deterministic per value — the
        // property every byte-identical report depends on.
        for v in [0.1, 1.0 / 3.0, 12345.678901234567, 1e-300] {
            let s = JsonObject::new().f64("v", v).finish();
            let body = s.trim_start_matches("{\"v\":").trim_end_matches('}');
            assert_eq!(body.parse::<f64>().unwrap(), v);
        }
    }
}
