//! A lightweight item parser over the [`crate::lexer`] token stream.
//!
//! This is not a Rust parser — it recognizes exactly the shapes the flow
//! rules need: `fn` items with their name, span, and body token range;
//! balanced-delimiter matching; per-token `#[cfg(test)]` regions; and the calls,
//! method calls, and macro invocations inside each body. Everything else
//! (types, generics, expressions) flows through as raw tokens that the
//! rules pattern-match directly.
//!
//! The parse is linear and total: malformed input degrades to "fewer items
//! recognized", never to an error, so one broken file cannot take down the
//! workspace scan.

use crate::lexer::{self, Tok, TokKind};

/// Sentinel for "no matching delimiter" in [`ParsedFile::matching`].
pub const NO_MATCH: usize = usize::MAX;

/// One `fn` item. Nested fns are recorded as their own items (their tokens
/// also sit inside the enclosing fn's body range; the over-approximation is
/// deliberate and documented in DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function name (raw-identifier prefix stripped).
    pub name: String,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// Token range of the body including both braces, `None` for bodyless
    /// trait-method declarations. `body = (open, close)` are token indices
    /// with `toks[open].is_open('{')` and `toks[close].is_close('}')`.
    pub body: Option<(usize, usize)>,
    /// 1-based source line of the `fn` keyword.
    pub line: usize,
    /// 1-based column of the `fn` keyword.
    pub col: usize,
    /// True when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// One call-shaped site inside a token range: a plain call `name(..)`, a
/// method call `.name(..)`, or a macro `name!(..)` / `name![..]` /
/// `name! {..}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    Call,
    Method,
    Macro,
}

#[derive(Debug, Clone)]
pub struct CallSite {
    pub kind: CallKind,
    /// Index of the name token.
    pub tok: usize,
}

/// A fully lexed and item-parsed source file — the unit every rule and the
/// call graph consume.
#[derive(Debug)]
pub struct ParsedFile {
    pub crate_name: String,
    pub rel_path: String,
    pub source: String,
    pub toks: Vec<Tok>,
    /// `matching[i]` = index of the delimiter token matching `toks[i]`
    /// (both directions), or [`NO_MATCH`].
    pub matching: Vec<usize>,
    /// `in_test[i]` is true when `toks[i]` sits in a `#[cfg(test)]` region
    /// (see `test_mask`).
    pub in_test: Vec<bool>,
    pub fns: Vec<FnItem>,
}

impl ParsedFile {
    pub fn parse(crate_name: &str, rel_path: &str, source: &str) -> ParsedFile {
        let toks = lexer::lex(source);
        let matching = match_delims(&toks);
        let in_test = test_mask(&toks, &matching);
        let fns = parse_fns(&toks, &matching, &in_test);
        ParsedFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            source: source.to_string(),
            toks,
            matching,
            in_test,
            fns,
        }
    }

    /// The trimmed raw source line `line` (1-based), for excerpts.
    pub fn raw_line(&self, line: usize) -> String {
        self.source
            .lines()
            .nth(line - 1)
            .unwrap_or("")
            .trim()
            .to_string()
    }

    /// True when char offset `pos` (between tokens, e.g. inside a comment)
    /// lies in a `#[cfg(test)]` region: the tokens on both sides of it do.
    pub(crate) fn pos_in_test(&self, pos: usize) -> bool {
        let next = self.toks.partition_point(|t| t.pos < pos);
        next > 0 && next < self.toks.len() && self.in_test[next - 1] && self.in_test[next]
    }

    /// Call-shaped sites in the half-open token range `lo..hi`.
    pub fn calls_in(&self, lo: usize, hi: usize) -> Vec<CallSite> {
        calls_in(&self.toks, lo, hi)
    }

    /// Body token range of `f` *excluding* the braces, or `None`.
    pub fn body_inner(&self, f: &FnItem) -> Option<(usize, usize)> {
        f.body.map(|(open, close)| (open + 1, close))
    }
}

/// Computes the delimiter match table. Unbalanced delimiters get
/// [`NO_MATCH`]; the stack discipline means one stray close cannot corrupt
/// matches before it.
pub fn match_delims(toks: &[Tok]) -> Vec<usize> {
    let mut matching = vec![NO_MATCH; toks.len()];
    let mut stack: Vec<(usize, char)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Open => {
                stack.push((i, t.text.chars().next().unwrap_or('{')));
            }
            TokKind::Close => {
                let close = t.text.chars().next().unwrap_or('}');
                let want = match close {
                    '}' => '{',
                    ')' => '(',
                    _ => '[',
                };
                if let Some(&(j, open)) = stack.last() {
                    if open == want {
                        stack.pop();
                        matching[i] = j;
                        matching[j] = i;
                    }
                }
            }
            _ => {}
        }
    }
    matching
}

/// True when the token texts starting at `i` are exactly `seq` (idents
/// by text, puncts and delimiters by char; literals never match).
pub(crate) fn seq_at(toks: &[Tok], i: usize, seq: &[&str]) -> bool {
    toks.len() >= i + seq.len() && seq.iter().zip(&toks[i..]).all(|(s, t)| t.text == *s)
}

/// Per-token `#[cfg(test)]` mask: each region runs from the attribute
/// through the end of the item it annotates — the matching `}` of its body,
/// or the `;` of a bodyless item (`#[cfg(test)] mod tests;`). Parenthesized
/// and bracketed groups before the body are skipped whole, so further
/// attributes and a `;` inside a parameter type do not end the item early.
fn test_mask(toks: &[Tok], matching: &[usize]) -> Vec<bool> {
    const ATTR: &[&str] = &["#", "[", "cfg", "(", "test", ")", "]"];
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !seq_at(toks, i, ATTR) {
            i += 1;
            continue;
        }
        let mut j = i + ATTR.len();
        let end = loop {
            let Some(t) = toks.get(j) else {
                break toks.len();
            };
            if t.is_punct(';') {
                break j + 1;
            }
            if t.kind == TokKind::Open {
                if matching[j] == NO_MATCH {
                    break toks.len();
                }
                if t.is_open('{') {
                    break matching[j] + 1;
                }
                j = matching[j];
            }
            j += 1;
        };
        in_test[i..end].fill(true);
        i = end;
    }
    in_test
}

/// Finds every `fn` item: the `fn` keyword token, the name, and the body
/// block (first `{` before a `;` at the same nesting level — return types
/// and where clauses flow through; a `;` first means a bodyless trait
/// declaration). Function *pointer types* (`fn(u64) -> u64`) have no name
/// ident after `fn` and are skipped.
fn parse_fns(toks: &[Tok], matching: &[usize], in_test: &[bool]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let fn_tok = i;
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = name_tok
            .text
            .strip_prefix("r#")
            .unwrap_or(&name_tok.text)
            .to_string();
        // Scan for the body `{`, skipping balanced groups (parameter list,
        // bracketed generics in defaults) so a `;` inside them doesn't read
        // as end-of-declaration.
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match toks[j].kind {
                TokKind::Open => {
                    if toks[j].is_open('{') {
                        let close = matching[j];
                        if close != NO_MATCH {
                            body = Some((j, close));
                        }
                        break;
                    }
                    // Skip (..) / [..] groups.
                    let m = matching[j];
                    if m == NO_MATCH {
                        break;
                    }
                    j = m + 1;
                }
                TokKind::Punct if toks[j].is_punct(';') => break,
                _ => j += 1,
            }
        }
        fns.push(FnItem {
            name,
            fn_tok,
            body,
            line: toks[fn_tok].line,
            col: toks[fn_tok].col,
            in_test: in_test[fn_tok],
        });
        i += 2;
    }
    fns
}

/// See [`ParsedFile::calls_in`]. A name token counts as a call when it is
/// directly followed by `(` (plain call / method call, disambiguated by a
/// preceding `.`), or by `!` + an open delimiter (macro). Definition sites
/// (`fn name(`) are excluded.
pub fn calls_in(toks: &[Tok], lo: usize, hi: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    let hi = hi.min(toks.len());
    for i in lo..hi {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let prev_fn = i > 0 && toks[i - 1].is_ident("fn");
        if prev_fn {
            continue;
        }
        let next = toks.get(i + 1);
        if next.is_some_and(|t| t.is_open('(')) {
            let kind = if i > 0 && toks[i - 1].is_punct('.') {
                CallKind::Method
            } else {
                CallKind::Call
            };
            out.push(CallSite { kind, tok: i });
        } else if next.is_some_and(|t| t.is_punct('!'))
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Open)
        {
            out.push(CallSite {
                kind: CallKind::Macro,
                tok: i,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("x", "crates/x/src/lib.rs", src)
    }

    #[test]
    fn finds_fns_with_bodies_and_names() {
        let p = parse("impl T {\n    pub fn alpha(&self) -> u64 { self.beta() }\n}\nfn beta() {}\ntrait Q { fn decl(&self); }\n");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "decl"]);
        assert!(p.fns[0].body.is_some());
        assert!(p.fns[1].body.is_some());
        assert!(p.fns[2].body.is_none(), "trait decl has no body");
        assert_eq!(p.fns[0].line, 2);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let p = parse("fn real(cb: fn(u64) -> u64) -> u64 { cb(1) }");
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real"]);
    }

    #[test]
    fn body_detection_skips_param_groups() {
        // A `;` inside the parameter list must not end the declaration.
        let p = parse("fn f(x: [u8; 4]) { g() }");
        assert!(p.fns[0].body.is_some());
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let p = parse("fn live() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n");
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }

    #[test]
    fn calls_methods_and_macros_are_classified() {
        let p = parse("fn f() { g(); x.h(); println!(\"{}\", 1); let v = vec![1]; }");
        let f = &p.fns[0];
        let (lo, hi) = p.body_inner(f).unwrap();
        let calls = p.calls_in(lo, hi);
        let got: Vec<(CallKind, &str)> = calls
            .iter()
            .map(|c| (c.kind, p.toks[c.tok].text.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                (CallKind::Call, "g"),
                (CallKind::Method, "h"),
                (CallKind::Macro, "println"),
                (CallKind::Macro, "vec"),
            ]
        );
    }

    #[test]
    fn delimiter_matching_is_balanced() {
        let p = parse("fn f() { if a { b(c[1]); } }");
        for (i, t) in p.toks.iter().enumerate() {
            if t.kind == TokKind::Open {
                let m = p.matching[i];
                assert_ne!(m, NO_MATCH);
                assert_eq!(p.matching[m], i);
            }
        }
    }

    #[test]
    fn seq_matcher_compares_token_texts() {
        let p = parse("fn f() { w(Pte::empty().0, \"Pte\"); }");
        let i = p.toks.iter().position(|t| t.is_ident("Pte")).unwrap();
        assert!(seq_at(&p.toks, i, &["Pte", ":", ":", "empty"]));
        assert!(!seq_at(&p.toks, i, &["Pte", ":", ":", "DIRTY"]));
        assert!(
            !seq_at(&p.toks, p.toks.len() - 1, &["}", "}"]),
            "runs off the end"
        );
    }

    #[test]
    fn test_regions_cover_the_annotated_item_only() {
        let p = parse("#[cfg(test)]\n#[allow(x)]\nfn helper(b: [u8; 4]) { HashMap }\nfn live() { HashSet }\n#[cfg(test)]\nmod tests;\nuse HashSet;");
        let masked: Vec<&str> = p
            .toks
            .iter()
            .zip(&p.in_test)
            .filter(|(t, &m)| m && t.kind == TokKind::Ident)
            .map(|(t, _)| t.text.as_str())
            .collect();
        assert_eq!(
            masked,
            vec![
                "cfg", "test", "allow", "x", "fn", "helper", "b", "u8", "HashMap", "cfg", "test",
                "mod", "tests"
            ]
        );
    }
}
