//! JSON string escaping for the workspace's hand-rolled emitters.
//!
//! The reports (`aos-campaign-report`, `aos-lint-report`,
//! `aos-lint-matrix`, ...) are written without a JSON dependency;
//! [`escape`] is the one place that turns an arbitrary string — a
//! workload name, a diagnostic detail, a captured panic message — into
//! the body of a JSON string literal.

/// Escapes `s` for use between the quotes of a JSON string: quotes,
/// backslashes and every control character (`\n`, `\r`, `\t` by name,
/// the rest as `\u00XX`). Everything else passes through unchanged.
///
/// # Examples
///
/// ```
/// assert_eq!(aos_util::json::escape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
/// ```
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_neutralizes_panic_payloads() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
        assert_eq!(escape("back\\slash\t"), "back\\\\slash\\t");
        assert_eq!(escape("bell\u{7}"), "bell\\u0007");
    }
}
