//! Flow-aware taint analysis over one function body.
//!
//! The model is deliberately small and conservative in one direction only:
//!
//! * **Sources** — any identifier on the sensitive deny list ([`crate::rules::SENSITIVE_IDENTS`],
//!   bare or as a field projection), and any call to a function the workspace
//!   [`Context`] marks as tainting (annotated
//!   `// lint:source(sensitive)`, or with an inferred tainted return).
//! * **Propagation** — `let` bindings and (compound) assignments: a binding whose initializer
//!   span contains taint becomes tainted; taint is sticky (reassignment never clears it —
//!   a lint should not reason about liveness).
//! * **Sanitizers** — a call to a `// lint:sanitizer` function *excises* its whole call span:
//!   `release(exact)` is clean, `release(exact) + exact` is still tainted.
//!
//! Sinks are the rule layer's business ([`crate::rules`]); this module only answers "which
//! names are tainted here" and "is the returned value tainted".

use std::collections::BTreeSet;

use crate::callgraph::Context;
use crate::lexer::{Token, TokenKind};
use crate::parse::{matching, FnInfo};
use crate::rules::SENSITIVE_IDENTS;

/// The taint analysis result for one function body.
#[derive(Debug, Default)]
pub struct FnTaint {
    /// Local binding names that hold sensitive values.
    pub tainted: BTreeSet<String>,
    /// Whether the function's returned value (tail expression or any `return`) is tainted.
    pub return_tainted: bool,
    /// Line of the first tainted token in a returned expression, when `return_tainted`.
    pub return_line: Option<usize>,
    /// Whether that first tainted return token is itself a deny-listed spelling — the
    /// spelling-based rules already own those, so flow rules can skip them.
    pub return_deny_listed: bool,
}

/// Upper bound on the intra-body fixpoint. Each round can only lengthen def-use chains by one
/// statement; real bodies converge in two or three.
const MAX_ROUNDS: usize = 12;

/// Runs the taint analysis over `f`'s body (no-op for bodiless declarations).
pub fn analyze(tokens: &[Token], f: &FnInfo, ctx: &Context) -> FnTaint {
    let Some((open, close)) = f.body else { return FnTaint::default() };
    let excised = excised_mask(tokens, open + 1, close, ctx);
    let mut out = FnTaint::default();
    for _ in 0..MAX_ROUNDS {
        let before = out.tainted.len();
        propagate(tokens, open + 1, close, &excised, ctx, &mut out.tainted);
        if out.tainted.len() == before {
            break;
        }
    }
    if f.has_return_type {
        if let Some((line, deny_listed)) =
            returned_taint(tokens, open, close, &excised, ctx, &out.tainted)
        {
            out.return_tainted = true;
            out.return_line = Some(line);
            out.return_deny_listed = deny_listed;
        }
    }
    out
}

/// True when the token at `i` carries taint under the current tainted-local set.
pub fn token_tainted(
    tokens: &[Token],
    i: usize,
    tainted: &BTreeSet<String>,
    ctx: &Context,
) -> bool {
    let t = &tokens[i];
    if t.kind != TokenKind::Ident {
        return false;
    }
    // Deny-list names are sources wherever they appear: bare bindings, parameters, and
    // `.exact`-style field projections all count.
    if SENSITIVE_IDENTS.contains(&t.text.as_str()) {
        return true;
    }
    let is_call = tokens.get(i + 1).is_some_and(|n| n.is_punct('('));
    if is_call && ctx.call_taints(&t.text) {
        return true;
    }
    // A tainted local — but never through a field/method position (`x.count` must not match a
    // tainted local named `count`), and never a call (handled above by workspace facts).
    if !is_call
        && tainted.contains(&t.text)
        && !(i > 0 && (tokens[i - 1].is_punct('.') || tokens[i - 1].is_punct(':')))
    {
        return true;
    }
    false
}

/// True when any non-excised token in `lo..hi` is tainted.
pub fn span_tainted(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    excised: &Excised,
    tainted: &BTreeSet<String>,
    ctx: &Context,
) -> bool {
    (lo..hi.min(tokens.len()))
        .any(|i| !excised.contains(i) && token_tainted(tokens, i, tainted, ctx))
}

/// Token indices removed from taint evaluation: every declared-sanitizer call span (callee
/// ident through its matching close paren).
#[derive(Debug, Default)]
pub struct Excised {
    spans: Vec<(usize, usize)>,
}

impl Excised {
    /// Is token index `i` inside a sanitizer call?
    pub fn contains(&self, i: usize) -> bool {
        self.spans.iter().any(|&(a, b)| (a..=b).contains(&i))
    }
}

/// Computes the sanitizer-call mask for `lo..hi`.
pub fn excised_mask(tokens: &[Token], lo: usize, hi: usize, ctx: &Context) -> Excised {
    let mut spans = Vec::new();
    for i in lo..hi.min(tokens.len()) {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && ctx.is_sanitizer(&t.text)
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(end) = matching(tokens, i + 1, '(', ')') {
                spans.push((i, end));
            }
        }
    }
    Excised { spans }
}

/// One propagation pass: `let` bindings and assignments whose right-hand side is tainted
/// taint their bound names.
fn propagate(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    excised: &Excised,
    ctx: &Context,
    tainted: &mut BTreeSet<String>,
) {
    let mut i = lo;
    while i < hi {
        if tokens[i].is_ident("let") {
            // In `if let` / `while let`, the scrutinee is a condition: it ends at the `{`
            // opening the body (struct literals are illegal in condition position, so a
            // depth-0 `{` is unambiguous). Without this stop the whole body would count as
            // the initializer and taint the binding from unrelated statements.
            let is_cond =
                i > 0 && (tokens[i - 1].is_ident("if") || tokens[i - 1].is_ident("while"));
            let (pattern, eq) = let_pattern(tokens, i + 1, hi);
            if let Some(eq) = eq {
                let end = if is_cond {
                    cond_end(tokens, eq + 1, hi)
                } else {
                    expr_end(tokens, eq + 1, hi)
                };
                if span_tainted(tokens, eq + 1, end, excised, tainted, ctx) {
                    tainted.extend(pattern);
                }
                i = eq + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if let Some(eq) = assignment_eq(tokens, i) {
            let target = tokens[i].text.clone();
            let end = expr_end(tokens, eq + 1, hi);
            if span_tainted(tokens, eq + 1, end, excised, tainted, ctx) {
                tainted.insert(target);
            }
            i = eq + 1;
            continue;
        }
        i += 1;
    }
}

/// Collects the binding names of a `let` pattern starting at `i` and the index of its `=`,
/// if the statement has an initializer. Ascribed types contribute no names.
fn let_pattern(tokens: &[Token], mut i: usize, hi: usize) -> (Vec<String>, Option<usize>) {
    let mut names = Vec::new();
    let mut depth = 0i64;
    let mut in_type = false;
    while i < hi {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('(')
            | TokenKind::Punct('[')
            | TokenKind::Punct('{')
            | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('>') if !(i > 0 && tokens[i - 1].is_punct('-')) => depth -= 1,
            TokenKind::Punct(':') if depth <= 0 => {
                if !tokens.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                    in_type = true;
                } else {
                    i += 1; // skip the second `:` of a path
                }
            }
            TokenKind::Punct('=') if depth <= 0 => {
                // `==` cannot appear in a pattern; `=` always starts the initializer.
                return (names, Some(i));
            }
            TokenKind::Punct(';') if depth <= 0 => return (names, None),
            TokenKind::Ident
                if !in_type && !matches!(t.text.as_str(), "mut" | "ref" | "_" | "box") =>
            {
                names.push(t.text.clone());
            }
            _ => {}
        }
        i += 1;
    }
    (names, None)
}

/// If tokens[i] anchors an assignment (`name = ...`, `name += ...`), the index of its `=`.
fn assignment_eq(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens[i].kind != TokenKind::Ident {
        return None;
    }
    let next = tokens.get(i + 1)?;
    if next.is_punct('=') {
        // Exclude `==` and `=>`.
        let after = tokens.get(i + 2);
        if after.is_some_and(|t| t.is_punct('=') || t.is_punct('>')) {
            return None;
        }
        return Some(i + 1);
    }
    // Compound assignment: `name += expr` and friends.
    if matches!(next.kind, TokenKind::Punct('+' | '-' | '*' | '/' | '%' | '&' | '|' | '^'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        && !tokens.get(i + 3).is_some_and(|t| t.is_punct('='))
    {
        return Some(i + 2);
    }
    None
}

/// End (exclusive) of the expression starting at `lo`: the first `;` at the expression's own
/// delimiter depth, or `hi`. Over-extends across statement-position blocks (`if let`), which
/// only ever over-taints.
fn expr_end(tokens: &[Token], lo: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().take(hi.min(tokens.len())).skip(lo) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            TokenKind::Punct(';') if depth <= 0 => return i,
            _ => {}
        }
    }
    hi
}

/// End (exclusive) of an `if let` / `while let` scrutinee starting at `lo`: the first `{` at
/// depth 0 (the block the condition guards), a statement end, or `hi`.
fn cond_end(tokens: &[Token], lo: usize, hi: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().take(hi.min(tokens.len())).skip(lo) {
        match t.kind {
            TokenKind::Punct('{') if depth <= 0 => return i,
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            TokenKind::Punct(';') if depth <= 0 => return i,
            _ => {}
        }
    }
    hi
}

/// Is the function's returned value tainted: any `return <expr>;` or the body's tail
/// expression. Returns `(line, deny_listed)` of the first tainted token when so.
fn returned_taint(
    tokens: &[Token],
    open: usize,
    close: usize,
    excised: &Excised,
    ctx: &Context,
    tainted: &BTreeSet<String>,
) -> Option<(usize, bool)> {
    let first_tainted = |lo: usize, hi: usize| {
        (lo..hi.min(tokens.len()))
            .find(|&i| !excised.contains(i) && token_tainted(tokens, i, tainted, ctx))
            .map(|i| (tokens[i].line, SENSITIVE_IDENTS.contains(&tokens[i].text.as_str())))
    };
    for i in open + 1..close {
        if tokens[i].is_ident("return") {
            let end = expr_end(tokens, i + 1, close);
            if let Some(hit) = first_tainted(i + 1, end) {
                return Some(hit);
            }
        }
    }
    // Tail expression: everything after the last top-level `;` (or the whole body).
    let mut depth = 0i64;
    let mut tail_start = open + 1;
    for (i, t) in tokens.iter().enumerate().take(close).skip(open + 1) {
        match t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct(';') if depth == 0 => tail_start = i + 1,
            _ => {}
        }
    }
    first_tainted(tail_start, close)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build_context;
    use crate::lexer::lex;
    use crate::parse::parse_fns;

    fn analyze_named(src: &str, name: &str) -> FnTaint {
        let rel = "crates/dp/src/t.rs";
        let ctx = build_context(&[(rel.to_string(), src.to_string())]);
        let lexed = lex(src);
        let fns = parse_fns(&lexed.tokens, &lexed.annotations);
        let f = fns.iter().find(|f| f.name == name).expect("fn present");
        analyze(&lexed.tokens, f, &ctx)
    }

    #[test]
    fn rename_propagates_taint() {
        let t = analyze_named(
            "pub fn f(exact_triangle_count: u64) -> u64 {\n    let laundered = exact_triangle_count;\n    laundered\n}\n",
            "f",
        );
        assert!(t.tainted.contains("laundered"));
        assert!(t.return_tainted);
    }

    #[test]
    fn chained_lets_and_compound_assignment_propagate() {
        let t = analyze_named(
            "pub fn f(noisy_degrees: &[f64]) -> f64 {\n    let a = noisy_degrees[0];\n    let mut b = 0.0;\n    b += a;\n    b\n}\n",
            "f",
        );
        assert!(t.tainted.contains("a") && t.tainted.contains("b"));
        assert!(t.return_tainted);
    }

    #[test]
    fn sanitizer_call_spans_are_excised() {
        let src = "// lint:sanitizer\nfn release(v: f64) -> f64 { v }\npub fn ok(exact: f64) -> f64 {\n    let out = release(exact);\n    out\n}\npub fn bad(exact: f64) -> f64 {\n    let out = release(exact) + exact;\n    out\n}\n";
        let ok = analyze_named(src, "ok");
        assert!(!ok.tainted.contains("out") && !ok.return_tainted);
        let bad = analyze_named(src, "bad");
        assert!(bad.tainted.contains("out") && bad.return_tainted);
    }

    #[test]
    fn field_projection_on_deny_listed_name_is_a_source() {
        let t = analyze_named(
            "pub fn f(seq: &Released) -> f64 {\n    let raw = seq.noisy_degrees[0];\n    raw\n}\n",
            "f",
        );
        assert!(t.tainted.contains("raw"));
    }

    #[test]
    fn unrelated_locals_stay_clean() {
        let t = analyze_named(
            "pub fn f(exact: u64, n: u64) -> u64 {\n    let clean = n + 1;\n    let also = clean * 2;\n    also\n}\n",
            "f",
        );
        assert!(t.tainted.is_empty());
        assert!(!t.return_tainted, "tail mentions only clean locals");
    }

    #[test]
    fn if_let_scrutinee_ends_at_the_body_brace() {
        // `name` binds `&spec.dataset` (clean); the *body* of the `if let` touches a tainted
        // local, which must not leak backwards into the binding.
        let t = analyze_named(
            "pub fn f(spec: &Spec, exact: u64) -> u64 {\n    let secret = exact;\n    if let Some(name) = &spec.dataset {\n        use_it(name, secret);\n    }\n    0\n}\n",
            "f",
        );
        assert!(t.tainted.contains("secret"));
        assert!(!t.tainted.contains("name"), "the if-let body must not taint the binding");
    }

    #[test]
    fn tainted_local_does_not_match_field_positions() {
        let t = analyze_named(
            "pub fn f(exact: u64, s: &Stats) -> u64 {\n    let count = exact;\n    let other = s.count;\n    other\n}\n",
            "f",
        );
        assert!(t.tainted.contains("count"));
        assert!(!t.tainted.contains("other"), "`s.count` is a field, not the tainted local");
    }
}
