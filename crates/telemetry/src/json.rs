//! The workspace's one JSON string escaper.
//!
//! Every hand-written JSON writer — structured log lines, Chrome trace
//! export, sweep/explore JSONL rows and the server's response bodies —
//! escapes strings through [`Escaped`], so they all agree on one escape
//! table.

use std::fmt;

/// Writes its string as the inside of a JSON string literal (no
/// surrounding quotes), for use in `write!`/`format!` templates:
/// `write!(out, "\"{}\"", Escaped(s))`.
///
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` get their short
/// escapes, every other control character below U+0020 becomes `\u00xx`,
/// and everything else passes through unchanged. Unescaped stretches are
/// written as whole slices, so escaping never allocates.
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut start = 0;
        for (i, byte) in s.bytes().enumerate() {
            let short = match byte {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            // Escaped bytes are ASCII, so `i` is always a char boundary.
            f.write_str(&s[start..i])?;
            if short.is_empty() {
                write!(f, "\\u{byte:04x}")?;
            } else {
                f.write_str(short)?;
            }
            start = i + 1;
        }
        f.write_str(&s[start..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_table_is_pinned() {
        let cases = [
            ("plain", "plain"),
            ("\"", "\\\""),
            ("\\", "\\\\"),
            ("\n", "\\n"),
            ("\r", "\\r"),
            ("\t", "\\t"),
            ("\u{0}", "\\u0000"),
            ("\u{1}", "\\u0001"),
            ("\u{8}", "\\u0008"),
            ("\u{c}", "\\u000c"),
            ("\u{1f}", "\\u001f"),
            (" ", " "),
            ("/", "/"),
            ("\u{7f}", "\u{7f}"),
            ("héllo ✓", "héllo ✓"),
            ("a\"b\\c\u{1}d\ne", "a\\\"b\\\\c\\u0001d\\ne"),
        ];
        for (input, expected) in cases {
            assert_eq!(Escaped(input).to_string(), expected, "input {input:?}");
        }
    }
}
