//! Lossy single-pass Rust scanner (the workspace builds offline, so
//! `syn` is not available). Comments and the contents of string and char
//! literals are *masked* to spaces, byte for byte, so keywords and types
//! can be searched without hits in comments or strings, at the raw
//! text's offsets. It also records plain `//` comments (where allow
//! annotations live), `#[cfg(test)] mod` bodies and `fn` spans. Not a
//! parse: `br"…"` strings and out-of-line `#[cfg(test)] mod x;` are not
//! recognized (DESIGN.md §9).

/// One `fn` with a body: its name, whether it is plain `pub`, and byte
/// offsets of the `fn` keyword, the body's `{` and one past its `}`.
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) is_pub: bool,
    pub(crate) sig_start: usize,
    pub(crate) body_start: usize,
    pub(crate) body_end: usize,
}

/// One scanned source file.
pub(crate) struct SourceFile {
    /// Path relative to the lint root, `/`-separated.
    pub(crate) rel: String,
    pub(crate) raw: String,
    /// `raw` with comments and literal contents blanked (same length).
    pub(crate) masked: String,
    /// Byte offset of each plain `//` comment.
    pub(crate) comments: Vec<usize>,
    test_regions: Vec<(usize, usize)>,
}

impl SourceFile {
    pub(crate) fn new(rel: String, raw: String) -> SourceFile {
        let (masked, comments) = mask(&raw);
        SourceFile {
            test_regions: test_regions(&masked),
            rel,
            raw,
            masked,
            comments,
        }
    }

    /// 1-based line number of a byte offset.
    pub(crate) fn line_of(&self, off: usize) -> usize {
        self.raw.as_bytes()[..off]
            .iter()
            .filter(|&&c| c == b'\n')
            .count()
            + 1
    }

    /// True when `off` falls inside a `#[cfg(test)] mod` body.
    pub(crate) fn in_test_region(&self, off: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| lo <= off && off < hi)
    }

    /// Every `fn` with a body, in source order.
    pub(crate) fn fns(&self) -> Vec<FnSpan> {
        let m = &self.masked;
        let mut out = Vec::new();
        for at in word_occurrences(m, "fn") {
            let name: String = m[at + 2..]
                .trim_start()
                .chars()
                .take_while(|&c| is_ident(c))
                .collect();
            let Some(open) = m[at..].find(['{', ';']).map(|p| at + p) else {
                continue;
            };
            // Skip bodyless trait methods and extern declarations.
            if let (false, b'{', Some(close)) =
                (name.is_empty(), m.as_bytes()[open], match_brace(m, open))
            {
                out.push(FnSpan {
                    name,
                    // The identifier right before `fn`: `pub`, or `const`, `crate)`, ….
                    is_pub: m[..at].trim_end().rsplit(|c| !is_ident(c)).next() == Some("pub"),
                    sig_start: at,
                    body_start: open,
                    body_end: close,
                });
            }
        }
        out
    }
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Replaces comments and the contents of string and char literals with
/// spaces (newlines are kept) and returns the offset of every plain `//`
/// comment.
fn mask(src: &str) -> (String, Vec<usize>) {
    let (b, n) = (src.as_bytes(), src.len());
    let mut out = b.to_vec();
    let mut comments = Vec::new();
    let mut i = 0;
    while i < n {
        let after_ident = i > 0 && is_ident(b[i - 1] as char);
        // The byte range to blank, and where scanning resumes.
        let (lo, hi, next) = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                if !matches!(b.get(i + 2), Some(b'/' | b'!')) {
                    comments.push(i);
                }
                let end = src[i..].find('\n').map_or(n, |p| i + p);
                (i, end, end)
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (mut depth, mut j) = (0, i);
                while j < n {
                    if b[j..].starts_with(b"/*") {
                        depth += 1;
                    } else if b[j..].starts_with(b"*/") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        j += 1;
                        continue;
                    }
                    j += 2;
                }
                (i, j + 2, j + 2)
            }
            b'r' if !after_ident => {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&b'"') {
                    i += 1;
                    continue; // an identifier starting with `r`
                }
                let closer = format!("\"{}", "#".repeat(hashes));
                let end = src[open + 1..].find(&closer).map_or(n, |p| open + 1 + p);
                (open + 1, end, end + closer.len())
            }
            b'"' => {
                let mut j = i + 1;
                while j < n && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                (i + 1, j, j + 1)
            }
            b'\'' => {
                // A char literal, or a lifetime (left as is).
                let end = if b.get(i + 1) == Some(&b'\\') {
                    src.get(i + 3..)
                        .and_then(|r| r.find('\''))
                        .map_or(n, |p| i + 3 + p)
                } else {
                    match src[i + 1..].chars().next() {
                        Some(c) if b.get(i + 1 + c.len_utf8()) == Some(&b'\'') => {
                            i + 1 + c.len_utf8()
                        }
                        _ => {
                            i += 1;
                            continue;
                        }
                    }
                };
                (i + 1, end, end + 1)
            }
            _ => {
                i += 1;
                continue;
            }
        };
        for c in &mut out[lo..hi.min(n)] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = next;
    }
    // Only whole characters were replaced by ASCII spaces.
    let masked = String::from_utf8(out).unwrap_or_else(|_| " ".repeat(n));
    (masked, comments)
}

/// Byte ranges of `#[cfg(test)] mod … { … }` bodies in masked text.
fn test_regions(m: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (at, _) in m.match_indices("#[cfg(test)]") {
        // Skip this and any further attributes, then the visibility.
        let mut rest = &m[at..];
        while rest.starts_with("#[") {
            rest = rest[rest.find(']').map_or(rest.len(), |e| e + 1)..].trim_start();
        }
        let rest = rest
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        if !rest.starts_with("mod ") {
            continue;
        }
        let at = m.len() - rest.len();
        if let Some(open) = m[at..]
            .find(['{', ';'])
            .map(|p| at + p)
            .filter(|&o| m.as_bytes()[o] == b'{')
        {
            out.push((open, match_brace(m, open).unwrap_or(m.len())));
        }
    }
    out
}

/// Offset one past the `}` matching the `{` at `open`; `None` if unbalanced.
fn match_brace(m: &str, open: usize) -> Option<usize> {
    let mut depth = 0i64;
    for (i, c) in m.bytes().enumerate().skip(open) {
        depth += match c {
            b'{' => 1,
            b'}' => -1,
            _ => continue,
        };
        if depth == 0 {
            return Some(i + 1);
        }
    }
    None
}

/// Offsets of `word` in `text` with no identifier character on either side.
pub(crate) fn word_occurrences(text: &str, word: &str) -> Vec<usize> {
    let ident_at = |i: usize| text[i..].chars().next().is_some_and(is_ident);
    text.match_indices(word)
        .map(|(at, _)| at)
        .filter(|&at| !text[..at].ends_with(is_ident) && !ident_at(at + word.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_strings_and_chars_but_not_lifetimes() {
        let src = "let x = \"a { wh\\\"ile\"; // loop {\nfn f<'a>(c: &'a str) { let q = '\"'; \
                   let d = '{'; /* a /* b */ c */ r#\"loop \"{\"#; b'\\''; }";
        let (masked, comments) = mask(src);
        assert_eq!(masked.len(), src.len());
        assert!(!masked.contains("ile") && !masked.contains("loop"));
        assert!(masked.contains("&'a str") && masked.contains("let d ="));
        let braces = (masked.matches('{').count(), masked.matches('}').count());
        assert_eq!(braces, (1, 1));
        assert_eq!(comments, [src.find("//").unwrap()]);
    }

    #[test]
    fn finds_test_regions_fns_and_words() {
        let src = "pub fn a() { body(); }\n#[cfg(test)]\n#[expect(x, reason = \"[y]\")]\n\
                   mod tests {\n    fn b() {}\n}\npub(crate) fn c() {}\ntrait T { fn d(&self); }\n";
        let f = SourceFile::new("crates/lp/src/lib.rs".into(), src.into());
        assert!(f.in_test_region(src.find("fn b").unwrap()));
        assert!(!f.in_test_region(src.find("pub(crate)").unwrap()));
        let spans = f.fns();
        let fns: Vec<(&str, bool)> = spans.iter().map(|d| (d.name.as_str(), d.is_pub)).collect();
        assert_eq!(fns, [("a", true), ("b", false), ("c", false)]);
        assert_eq!(f.line_of(src.find("mod").unwrap()), 4);
        assert_eq!(word_occurrences("while_x while awhile", "while"), [8]);
    }
}
