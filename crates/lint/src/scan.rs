//! Lossy single-pass Rust scanner.
//!
//! `dcn-lint` deliberately does not parse Rust (the workspace builds
//! offline; `syn` is not available). Instead each source file is *masked*:
//! comments and the contents of string/char literals are replaced by
//! spaces, byte for byte, so that
//!
//! * token-level patterns (`.unwrap()`, `== 0.0`, `counter!(`) can be
//!   searched in the masked text without false positives from comments,
//!   doc examples, or string contents, and
//! * byte offsets and line numbers in the masked text are identical to the
//!   raw text, so diagnostics point at real locations.
//!
//! The scanner additionally records every string literal (the
//! metric-registry rule needs their values), marks `#[cfg(test)] mod`
//! regions line by line, and classifies files by path (crate, test code,
//! bin target). Known limitations are documented in DESIGN.md §9: masking
//! is token-lossy, not a parse, and `#[cfg(test)]` is only recognized in
//! its plain inline-`mod` form.

/// A string literal found in a source file.
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the opening quote.
    pub start: usize,
    /// Raw (unescaped) contents between the quotes.
    pub value: String,
}

/// One scanned source file plus its derived views.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, `/`-separated.
    pub rel: String,
    /// Owning crate: `crates/<k>/…` gives `k`, the root `src/…` gives
    /// `dcn`. `None` for files outside both.
    pub krate: Option<String>,
    /// Under a `tests/`, `benches/`, or `examples/` directory.
    pub is_test_code: bool,
    /// Under a `src/bin/` directory (binary target).
    pub is_bin: bool,
    /// Raw file contents.
    pub raw: String,
    /// Masked contents (same byte length as `raw`).
    pub masked: String,
    /// All string literals, in source order.
    pub strings: Vec<StrLit>,
    /// Byte offset of each line start (line `i` is 1-based: `starts[i-1]`).
    pub line_starts: Vec<usize>,
    /// Per line (0-based index = line - 1): inside a `#[cfg(test)] mod`.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Builds the derived views for one file.
    pub fn new(rel: String, raw: String) -> SourceFile {
        let segs: Vec<&str> = rel.split('/').collect();
        let krate = match segs.first() {
            Some(&"crates") if segs.len() > 1 => Some(segs[1].to_string()),
            Some(&"src") => Some("dcn".to_string()),
            _ => None,
        };
        let is_test_code = segs
            .iter()
            .any(|s| matches!(*s, "tests" | "benches" | "examples"));
        let is_bin = segs.contains(&"bin");
        let (masked, strings) = mask(&raw);
        let mut line_starts = vec![0usize];
        for (i, b) in raw.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let n_lines = line_starts.len();
        let mut test_lines = vec![false; n_lines];
        for (lo, hi) in test_regions(&masked) {
            let first = offset_line(&line_starts, lo);
            let last = offset_line(&line_starts, hi.saturating_sub(1));
            for l in first..=last {
                if l >= 1 && l <= n_lines {
                    test_lines[l - 1] = true;
                }
            }
        }
        SourceFile {
            rel,
            krate,
            is_test_code,
            is_bin,
            raw,
            masked,
            strings,
            line_starts,
            test_lines,
        }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, off: usize) -> usize {
        offset_line(&self.line_starts, off)
    }

    /// True when the given byte offset falls inside a `#[cfg(test)] mod`.
    pub fn in_test_region(&self, off: usize) -> bool {
        let l = self.line_of(off);
        l >= 1 && l <= self.test_lines.len() && self.test_lines[l - 1]
    }
}

fn offset_line(line_starts: &[usize], off: usize) -> usize {
    match line_starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

const fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces comments and the contents of string/char literals with spaces
/// (newlines are preserved so line numbers survive), and collects string
/// literal values. Delimiters themselves (`"`) are kept so rules can still
/// see where a literal starts.
pub fn mask(src: &str) -> (String, Vec<StrLit>) {
    let b = src.as_bytes();
    let n = b.len();
    let mut out = b.to_vec();
    let mut strings = Vec::new();
    let mut i = 0usize;

    let blank = |out: &mut [u8], lo: usize, hi: usize| {
        for o in out.iter_mut().take(hi.min(n)).skip(lo) {
            if *o != b'\n' {
                *o = b' ';
            }
        }
    };

    while i < n {
        let c = b[i];
        let prev_ident = i > 0 && is_ident(b[i - 1]);
        if c == b'/' && i + 1 < n && b[i + 1] == b'/' {
            let start = i;
            while i < n && b[i] != b'\n' {
                i += 1;
            }
            blank(&mut out, start, i);
        } else if c == b'/' && i + 1 < n && b[i + 1] == b'*' {
            let start = i;
            let mut depth = 1;
            i += 2;
            while i < n && depth > 0 {
                if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            blank(&mut out, start, i);
        } else if c == b'"' {
            i = scan_string(src, &mut out, i, &mut strings);
        } else if (c == b'r' || c == b'b') && !prev_ident {
            if let Some(next) = scan_prefixed_literal(src, &mut out, i, &mut strings) {
                i = next;
            } else {
                i += 1;
            }
        } else if c == b'\'' {
            i = scan_char_or_lifetime(src, &mut out, i);
        } else {
            i += 1;
        }
    }
    // Only ASCII spaces were written, so the result is valid UTF-8.
    let masked = String::from_utf8(out).unwrap_or_else(|_| " ".repeat(n));
    (masked, strings)
}

/// Scans a plain `"…"` string starting at the opening quote; returns the
/// offset past the closing quote. Contents are blanked and recorded.
fn scan_string(src: &str, out: &mut [u8], start: usize, strings: &mut Vec<StrLit>) -> usize {
    let b = src.as_bytes();
    let n = b.len();
    let mut i = start + 1;
    while i < n {
        if b[i] == b'\\' {
            i = (i + 2).min(n);
        } else if b[i] == b'"' {
            break;
        } else {
            i += 1;
        }
    }
    let value = src.get(start + 1..i.min(n)).unwrap_or("").to_string();
    for o in out.iter_mut().take(i.min(n)).skip(start + 1) {
        if *o != b'\n' {
            *o = b' ';
        }
    }
    strings.push(StrLit { start, value });
    (i + 1).min(n)
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and `b'…'` literals
/// starting at the `r`/`b` prefix. Returns `None` when the prefix turns
/// out to be an ordinary identifier character.
fn scan_prefixed_literal(
    src: &str,
    out: &mut [u8],
    start: usize,
    strings: &mut Vec<StrLit>,
) -> Option<usize> {
    let b = src.as_bytes();
    let n = b.len();
    let mut i = start;
    if b[i] == b'b' {
        i += 1;
        if i < n && b[i] == b'\'' {
            return Some(scan_char_or_lifetime(src, out, i));
        }
    }
    if i < n && b[i] == b'r' {
        i += 1;
    }
    let mut hashes = 0usize;
    while i < n && b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if i >= n || b[i] != b'"' {
        return None; // not a literal after all (e.g. ident `r`, `b`)
    }
    if hashes == 0 && src.as_bytes()[i.saturating_sub(1)] != b'r' && start + 1 == i {
        // plain b"…": delegate for escape handling
        return Some(scan_string(src, out, i, strings));
    }
    // Raw string: ends at `"` followed by `hashes` hashes, no escapes.
    let open = i;
    let mut j = i + 1;
    let closer: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    while j < n {
        if b[j] == b'"' && b[j..].starts_with(&closer) {
            break;
        }
        j += 1;
    }
    let value = src.get(open + 1..j.min(n)).unwrap_or("").to_string();
    for o in out.iter_mut().take(j.min(n)).skip(open + 1) {
        if *o != b'\n' {
            *o = b' ';
        }
    }
    strings.push(StrLit { start: open, value });
    Some((j + closer.len()).min(n))
}

/// Distinguishes `'x'` / `'\n'` char literals from `'a` lifetimes at a
/// `'`. Char-literal contents are blanked; lifetimes are left untouched.
fn scan_char_or_lifetime(src: &str, out: &mut [u8], start: usize) -> usize {
    let b = src.as_bytes();
    let n = b.len();
    let i = start + 1;
    if i >= n {
        return n;
    }
    if b[i] == b'\\' {
        // Escaped char literal: blank to the closing quote.
        let mut j = i + 2; // skip the escaped character
        while j < n && b[j] != b'\'' {
            j += 1;
        }
        for o in out.iter_mut().take(j.min(n)).skip(i) {
            if *o != b'\n' {
                *o = b' ';
            }
        }
        return (j + 1).min(n);
    }
    // One UTF-8 char followed by a closing quote → char literal.
    if let Some(c) = src[i..].chars().next() {
        let end = i + c.len_utf8();
        if end < n && b[end] == b'\'' {
            for o in out.iter_mut().take(end).skip(i) {
                if *o != b'\n' {
                    *o = b' ';
                }
            }
            return end + 1;
        }
    }
    // Lifetime: keep as-is.
    i
}

/// Byte ranges of `#[cfg(test)] mod … { … }` bodies in masked text.
fn test_regions(masked: &str) -> Vec<(usize, usize)> {
    let b = masked.as_bytes();
    let n = b.len();
    let mut regions = Vec::new();
    let mut from = 0usize;
    while let Some(p) = masked[from..].find("#[cfg(test)]") {
        let attr_end = from + p + "#[cfg(test)]".len();
        from = attr_end;
        let mut j = attr_end;
        // Skip whitespace and any further attributes.
        loop {
            while j < n && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if j < n && b[j] == b'#' {
                // Skip a balanced #[…] attribute.
                while j < n && b[j] != b'[' {
                    j += 1;
                }
                let mut depth = 0i32;
                while j < n {
                    if b[j] == b'[' {
                        depth += 1;
                    } else if b[j] == b']' {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            } else {
                break;
            }
        }
        for kw in ["pub ", "pub(crate) "] {
            if masked[j..].starts_with(kw) {
                j += kw.len();
            }
        }
        if !masked[j..].starts_with("mod") {
            continue;
        }
        // Body: next `{` (stop at `;` — `mod x;` out-of-line form is a
        // documented limitation).
        let Some(rel_open) = masked[j..].find(['{', ';']) else {
            continue;
        };
        let open = j + rel_open;
        if b[open] != b'{' {
            continue;
        }
        if let Some(close) = match_brace(masked, open) {
            regions.push((open, close));
            from = close;
        }
    }
    regions
}

/// Offset one past the `}` matching the `{` at `open` (masked text, so
/// braces inside literals/comments are already gone). `None` if unbalanced.
pub fn match_brace(masked: &str, open: usize) -> Option<usize> {
    let b = masked.as_bytes();
    debug_assert_eq!(b[open], b'{');
    let mut depth = 0i64;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == b'{' {
            depth += 1;
        } else if c == b'}' {
            depth -= 1;
            if depth == 0 {
                return Some(i + 1);
            }
        }
    }
    None
}

/// All word-bounded occurrences of `word` in `text`: the match must not be
/// preceded or followed by an identifier character.
pub fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let b = text.as_bytes();
    let mut from = 0usize;
    while let Some(p) = text[from..].find(word) {
        let at = from + p;
        let pre_ok = at == 0 || !is_ident(b[at - 1]);
        let end = at + word.len();
        let post_ok = end >= b.len() || !is_ident(b[end]);
        if pre_ok && post_ok {
            hits.push(at);
        }
        from = at + word.len();
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings() {
        let src = "let x = \"a.unwrap()\"; // .unwrap()\nlet y = 1;";
        let (masked, strings) = mask(src);
        assert_eq!(masked.len(), src.len());
        assert!(!masked.contains(".unwrap()"));
        assert!(masked.contains("let y = 1;"));
        assert_eq!(strings.len(), 1);
        assert_eq!(strings[0].value, "a.unwrap()");
    }

    #[test]
    fn masks_nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner */ still */ code(r#\"panic!(\"x\")\"#)";
        let (masked, strings) = mask(src);
        assert!(!masked.contains("outer"));
        assert!(!masked.contains("panic!"));
        assert!(masked.contains("code("));
        assert_eq!(strings.len(), 1);
        assert_eq!(strings[0].value, "panic!(\"x\")");
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = 'z'; }";
        let (masked, _) = mask(src);
        // The quote inside the char literal must not open a string.
        assert!(masked.contains("let d ="));
        assert!(masked.contains("&'a str"));
        assert!(!masked.contains("'z'"));
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let src = r#"let s = "he said \"hi\""; after();"#;
        let (masked, strings) = mask(src);
        assert!(masked.contains("after();"));
        assert_eq!(strings.len(), 1);
        assert_eq!(strings[0].value, r#"he said \"hi\""#);
    }

    #[test]
    fn finds_test_regions() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::new("crates/lp/src/lib.rs".into(), src.into());
        assert!(!f.test_lines[0]);
        assert!(f.test_lines[3]);
        assert!(!f.test_lines[5]);
        assert_eq!(f.krate.as_deref(), Some("lp"));
    }

    #[test]
    fn classifies_paths() {
        let t = SourceFile::new("crates/mcf/tests/x.rs".into(), String::new());
        assert!(t.is_test_code);
        let b = SourceFile::new("crates/bench/src/bin/fig3.rs".into(), String::new());
        assert!(b.is_bin && !b.is_test_code);
        let root = SourceFile::new("src/lib.rs".into(), String::new());
        assert_eq!(root.krate.as_deref(), Some("dcn"));
    }

    #[test]
    fn word_occurrences_respect_boundaries() {
        let hits = word_occurrences("while_x while awhile while", "while");
        assert_eq!(hits.len(), 2);
    }
}
