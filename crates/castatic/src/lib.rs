//! Dependency-free workspace lint for the Conditional-Access repo.
//!
//! Three rules, all built on one hand-rolled Rust lexer (strings, raw
//! strings, char-vs-lifetime, nested block comments — enough to never
//! misfire inside literals or comments):
//!
//! 1. **`unsafe-comment`** — every `unsafe` keyword (block, fn, impl,
//!    trait) must have a comment containing "SAFETY" (case-insensitive)
//!    within the 10 preceding lines (or on the same line).
//! 2. **`atomic-ledger`** — every `Ordering::*` use in `crates/casmr/src`
//!    must match the checked-in ledger (`ORDERINGS.md` at the repo root,
//!    regenerated with `--write-ledger`). A changed ordering, a new atomic
//!    op, or a deleted one all show up as a ledger diff that has to be
//!    committed — and therefore reviewed.
//! 3. **`nondet`** — bans nondeterminism hazards in the sim-deterministic
//!    crates: `Instant::now` / `SystemTime` (host clocks), `env::var` and
//!    `env::args` outside `config.rs` (hidden configuration: a process
//!    default that a library value reads silently), and
//!    `HashMap`/`HashSet` imports (unordered iteration in result paths).
//!
//! Any finding can be waived in place with
//! `// castatic: allow(<rule>) — justification` on the finding's line or
//! up to 3 lines above it. The justification is part of the contract: a
//! bare `allow` passes the lexer but fails review.
//!
//! The entry point for tests is [`lint_file`], which is pure: it takes a
//! path label and source text and returns findings with exact spans.

/// One lint finding. Lines and columns are 1-based.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: &'static str,
    pub msg: String,
}

impl Finding {
    /// `file:line:col: [rule] msg` — the clickable report line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Which rules to run on a file (the driver scopes rules per crate).
#[derive(Debug, Clone, Copy)]
pub struct Rules {
    /// `unsafe-comment`: SAFETY comment required near every `unsafe`.
    pub unsafe_comment: bool,
    /// `nondet`: host clocks, env reads, unordered-map imports.
    pub nondet: bool,
    /// Exempt `env::var` / `env::args` (the `nondet` sub-rule) for this
    /// file — the one sanctioned configuration funnel (`config.rs`).
    pub env_exempt: bool,
}

/// One token of Rust source (identifiers, numbers, and punctuation; string
/// and char literal *contents* are dropped, comments are captured
/// separately).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    text: String,
    line: u32,
    col: u32,
}

/// Lexer output: code tokens plus per-line comment text.
struct Lexed {
    toks: Vec<Tok>,
    /// `(line, text)` for every comment line (block comments contribute
    /// one entry per spanned line).
    comments: Vec<(u32, String)>,
}

/// Tokenize `src`. Never panics on malformed input — an unterminated
/// literal just consumes to EOF, which is fine for a lint (rustc owns
/// syntax errors).
fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut toks = Vec::new();
    let mut comments: Vec<(u32, String)> = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    // Advance over chars[i], maintaining line/col.
    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = chars[i];
        // Line comment (incl. doc `///` and `//!`).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                bump!();
            }
            comments.push((start_line, text));
            continue;
        }
        // Block comment, nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let mut depth = 0usize;
            let mut cur_line = line;
            let mut text = String::new();
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    bump!();
                    bump!();
                    continue;
                }
                if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                    continue;
                }
                if chars[i] == '\n' {
                    comments.push((cur_line, std::mem::take(&mut text)));
                    cur_line = line + 1;
                }
                text.push(chars[i]);
                bump!();
            }
            if !text.is_empty() {
                comments.push((cur_line, text));
            }
            continue;
        }
        // Raw / byte / plain string literals. Handles r"..", r#".."#,
        // b"..", br#".."# — contents are dropped.
        if c == '"'
            || (c == 'r' && i + 1 < n && (chars[i + 1] == '"' || chars[i + 1] == '#'))
            || (c == 'b' && i + 1 < n && chars[i + 1] == '"')
            || (c == 'b' && i + 2 < n && chars[i + 1] == 'r' && (chars[i + 2] == '"' || chars[i + 2] == '#'))
        {
            // Distinguish the identifier `r`/`b` from a literal prefix:
            // only treat as a literal when a quote actually follows the
            // optional prefix + hashes.
            let mut j = i;
            if chars[j] == 'b' {
                j += 1;
            }
            let raw = j < n && chars[j] == 'r';
            if raw {
                j += 1;
            }
            let mut hashes = 0usize;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j < n && chars[j] == '"' && (raw || hashes == 0) {
                // Consume prefix up to and including the opening quote.
                while i <= j {
                    bump!();
                }
                if raw {
                    // Raw string: ends at `"` followed by `hashes` hashes.
                    while i < n {
                        if chars[i] == '"' {
                            let mut k = 1usize;
                            while k <= hashes && i + k < n && chars[i + k] == '#' {
                                k += 1;
                            }
                            if k == hashes + 1 {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break;
                            }
                        }
                        bump!();
                    }
                } else {
                    // Cooked string: backslash escapes.
                    while i < n {
                        if chars[i] == '\\' && i + 1 < n {
                            bump!();
                            bump!();
                            continue;
                        }
                        if chars[i] == '"' {
                            bump!();
                            break;
                        }
                        bump!();
                    }
                }
                continue;
            }
            // Fall through: it was an identifier starting with r/b.
        }
        // Char literal vs lifetime. After a `'`: if an ident char follows
        // and the char after *that* is not a closing `'`, it's a lifetime
        // (consume just the ident); otherwise a char literal.
        if c == '\'' {
            let is_lifetime = i + 1 < n
                && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_')
                && !(i + 2 < n && chars[i + 2] == '\'');
            bump!();
            if is_lifetime {
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!();
                }
            } else {
                // Char literal: `'x'` or `'\..'`.
                if i < n && chars[i] == '\\' {
                    bump!();
                    if i < n {
                        bump!();
                    }
                    // \u{...} escapes.
                    while i < n && chars[i] != '\'' {
                        bump!();
                    }
                } else if i < n {
                    bump!();
                }
                if i < n && chars[i] == '\'' {
                    bump!();
                }
            }
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let (tl, tc) = (line, col);
            let mut text = String::new();
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                bump!();
            }
            toks.push(Tok { text, line: tl, col: tc });
            continue;
        }
        // Number (orderings/ops never start with digits; lump and move on).
        if c.is_ascii_digit() {
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.') {
                // Guard against range `0..n` being eaten as one number.
                if chars[i] == '.' && i + 1 < n && chars[i + 1] == '.' {
                    break;
                }
                bump!();
            }
            continue;
        }
        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }
        // Single-char punctuation token.
        let (tl, tc) = (line, col);
        toks.push(Tok {
            text: c.to_string(),
            line: tl,
            col: tc,
        });
        bump!();
    }
    Lexed { toks, comments }
}

/// Waivers found in comments: `(line, rule)` for every
/// `castatic: allow(<rule>)`.
fn waivers(lexed: &Lexed) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        if let Some(pos) = text.find("castatic: allow(") {
            let rest = &text[pos + "castatic: allow(".len()..];
            if let Some(end) = rest.find(')') {
                out.push((*line, rest[..end].trim().to_string()));
            }
        }
    }
    out
}

/// Is a finding at `line` waived for `rule` (same line or up to 3 above)?
fn waived(waivers: &[(u32, String)], rule: &str, line: u32) -> bool {
    waivers
        .iter()
        .any(|(wl, wr)| wr == rule && *wl <= line && line.saturating_sub(*wl) <= 3)
}

/// Is there a SAFETY comment within `lookback` lines at or above `line`?
fn has_safety_comment(lexed: &Lexed, line: u32, lookback: u32) -> bool {
    lexed.comments.iter().any(|(cl, text)| {
        *cl <= line
            && line.saturating_sub(*cl) <= lookback
            && text.to_ascii_lowercase().contains("safety")
    })
}

/// Run the enabled rules on one file. Pure — the driver and the fixture
/// tests share this.
pub fn lint_file(file: &str, src: &str, rules: Rules) -> Vec<Finding> {
    let lexed = lex(src);
    let wv = waivers(&lexed);
    let mut out = Vec::new();

    if rules.unsafe_comment {
        for t in &lexed.toks {
            if t.text == "unsafe" {
                if has_safety_comment(&lexed, t.line, 10) {
                    continue;
                }
                if waived(&wv, "unsafe-comment", t.line) {
                    continue;
                }
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: "unsafe-comment",
                    msg: "`unsafe` without a SAFETY comment in the 10 preceding lines".to_string(),
                });
            }
        }
    }

    if rules.nondet {
        let toks = &lexed.toks;
        for (idx, t) in toks.iter().enumerate() {
            let seq3 = |a: &str, b: &str, c: &str| {
                t.text == a
                    && toks.get(idx + 1).is_some_and(|x| x.text == b)
                    && toks.get(idx + 2).is_some_and(|x| x.text == c)
            };
            let mut hit: Option<&'static str> = None;
            if seq3("Instant", ":", ":") && toks.get(idx + 3).is_some_and(|x| x.text == "now") {
                hit = Some("host clock read (`Instant::now`) in a sim-deterministic crate");
            } else if t.text == "SystemTime" {
                hit = Some("host clock (`SystemTime`) in a sim-deterministic crate");
            } else if !rules.env_exempt
                && seq3("env", ":", ":")
                && toks.get(idx + 3).is_some_and(|x| {
                    ["var", "var_os", "vars", "args", "args_os"].contains(&x.text.as_str())
                })
            {
                hit = Some("environment or command-line read outside config.rs (hidden configuration)");
            } else if t.text == "HashMap" || t.text == "HashSet" {
                // Only flag the import: one finding (and one waiver) per
                // use, at the point a reviewer looks for it.
                let line_starts_with_use = toks
                    .iter()
                    .find(|x| x.line == t.line)
                    .is_some_and(|x| x.text == "use");
                if line_starts_with_use {
                    hit = Some(
                        "unordered-map import in a sim-deterministic crate (iteration \
                         order leaks the hasher into results)",
                    );
                }
            }
            if let Some(msg) = hit {
                if waived(&wv, "nondet", t.line) {
                    continue;
                }
                out.push(Finding {
                    file: file.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: "nondet",
                    msg: msg.to_string(),
                });
            }
        }
    }

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// One atomic-ordering occurrence: `(enclosing fn, op, ordering)` with its
/// source line (for reporting; the ledger aggregates by count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicUse {
    pub func: String,
    pub op: String,
    pub ordering: String,
    pub line: u32,
}

/// Atomic operations whose `Ordering` arguments the ledger tracks.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "fence",
    "compiler_fence",
];

/// Extract every `Ordering::X` use from `src` with its enclosing fn and
/// the nearest preceding atomic op name (the call the ordering belongs
/// to). `compare_exchange`'s two orderings yield two entries.
pub fn atomic_uses(src: &str) -> Vec<AtomicUse> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let mut out = Vec::new();
    // Enclosing-fn tracking: brace depth + a stack of (name, depth).
    let mut depth = 0u32;
    let mut stack: Vec<(String, u32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    for (idx, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            "fn" => {
                if let Some(next) = toks.get(idx + 1) {
                    if next.text.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
                        pending_fn = Some(next.text.clone());
                    }
                }
            }
            "{" => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    stack.push((name, depth));
                }
            }
            "}" => {
                if stack.last().is_some_and(|(_, d)| *d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            "Ordering" => {
                let is_path = toks.get(idx + 1).is_some_and(|x| x.text == ":")
                    && toks.get(idx + 2).is_some_and(|x| x.text == ":");
                let ord = toks.get(idx + 3).map(|x| x.text.clone());
                if let (true, Some(ord)) = (is_path, ord) {
                    if !matches!(
                        ord.as_str(),
                        "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"
                    ) {
                        continue; // a `use` statement or an alias, not a call site
                    }
                    // Nearest preceding atomic op name.
                    let op = toks[..idx]
                        .iter()
                        .rev()
                        .take(80)
                        .find(|x| ATOMIC_OPS.contains(&x.text.as_str()))
                        .map(|x| x.text.clone())
                        .unwrap_or_else(|| "?".to_string());
                    let func = stack
                        .last()
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| "top".to_string());
                    out.push(AtomicUse {
                        func,
                        op,
                        ordering: ord,
                        line: t.line,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: Rules = Rules {
        unsafe_comment: true,
        nondet: true,
        env_exempt: false,
    };

    #[test]
    fn unsafe_without_safety_is_flagged_with_span() {
        let src = "fn f(p: *mut u8) {\n    let _ = unsafe { *p };\n}\n";
        let f = lint_file("x.rs", src, ALL);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].col), (2, 13));
        assert_eq!(f[0].rule, "unsafe-comment");
    }

    #[test]
    fn safety_comment_within_lookback_passes() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: caller owns p.\n    let _ = unsafe { *p };\n}\n";
        assert!(lint_file("x.rs", src, ALL).is_empty());
        // Lowercase + block comment count too.
        let src2 = "/* safety: fine */\nunsafe fn g() {}\n";
        assert!(lint_file("x.rs", src2, ALL).is_empty());
    }

    #[test]
    fn safety_comment_too_far_above_does_not_count() {
        let mut src = String::from("// SAFETY: stale.\n");
        src.push_str(&"\n".repeat(11));
        src.push_str("unsafe fn g() {}\n");
        let f = lint_file("x.rs", &src, ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 13);
    }

    #[test]
    fn unsafe_inside_string_or_comment_is_ignored() {
        let src = "fn f() {\n    let _ = \"unsafe { }\";\n    // unsafe in prose\n    let _ = r#\"unsafe\"#;\n}\n";
        assert!(lint_file("x.rs", src, ALL).is_empty());
    }

    #[test]
    fn waiver_suppresses_within_three_lines() {
        let src = "// castatic: allow(unsafe-comment) — fixture.\nunsafe fn g() {}\n";
        assert!(lint_file("x.rs", src, ALL).is_empty());
        let src2 = "// castatic: allow(nondet) — fixture.\nuse std::collections::HashMap;\n";
        assert!(lint_file("x.rs", src2, ALL).is_empty());
        // A waiver for the wrong rule does not apply.
        let src3 = "// castatic: allow(nondet) — wrong rule.\nunsafe fn g() {}\n";
        assert_eq!(lint_file("x.rs", src3, ALL).len(), 1);
    }

    #[test]
    fn nondet_hazards_are_flagged() {
        let src = "fn f() {\n    let t = Instant::now();\n    let e = std::env::var(\"X\");\n    let s = SystemTime::now();\n}\nuse std::collections::HashMap;\n";
        let f = lint_file("x.rs", src, ALL);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(
            rules,
            vec![(2, "nondet"), (3, "nondet"), (4, "nondet"), (6, "nondet")]
        );
    }

    #[test]
    fn argv_reads_are_env_reads() {
        let src = "fn f() {\n    let a = std::env::args().count();\n    let b = env::args_os();\n}\n";
        let f = lint_file("experiments.rs", src, ALL);
        let rules: Vec<_> = f.iter().map(|x| (x.line, x.rule)).collect();
        assert_eq!(rules, vec![(2, "nondet"), (3, "nondet")]);
        assert!(f[0].msg.contains("command-line"), "{}", f[0].msg);
        let exempt = Rules {
            env_exempt: true,
            ..ALL
        };
        assert!(lint_file("config.rs", src, exempt).is_empty());
    }

    #[test]
    fn env_exempt_skips_env_reads_only() {
        let src = "fn f() {\n    let e = std::env::var(\"X\");\n    let t = Instant::now();\n}\n";
        let f = lint_file(
            "config.rs",
            src,
            Rules {
                env_exempt: true,
                ..ALL
            },
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn hashmap_in_expression_position_is_not_flagged_twice() {
        // Only the import line is flagged — call sites would need a
        // waiver per line otherwise.
        let src = "fn f() {\n    let m: std::collections::HashMap<u8, u8> = Default::default();\n}\n";
        assert!(lint_file("x.rs", src, ALL).is_empty());
    }

    #[test]
    fn lifetime_does_not_start_a_char_literal() {
        // If the lexer mis-lexed `'a` as an open char literal it would
        // swallow the `unsafe` that follows.
        let src = "fn f<'a>(x: &'a u8) {\n    unsafe { std::ptr::read(x) };\n}\n";
        let f = lint_file("x.rs", src, ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn atomic_uses_attribute_op_fn_and_both_cas_orderings() {
        let src = "fn push(&self) {\n    self.head.compare_exchange(a, b, Ordering::AcqRel, Ordering::Acquire);\n}\nfn peek(&self) -> u64 {\n    self.head.load(Ordering::Acquire)\n}\n";
        let u = atomic_uses(src);
        assert_eq!(u.len(), 3);
        assert_eq!(
            (u[0].func.as_str(), u[0].op.as_str(), u[0].ordering.as_str()),
            ("push", "compare_exchange", "AcqRel")
        );
        assert_eq!(u[1].ordering, "Acquire");
        assert_eq!(
            (u[2].func.as_str(), u[2].op.as_str(), u[2].ordering.as_str()),
            ("peek", "load", "Acquire")
        );
    }

    #[test]
    fn ordering_use_statement_is_not_a_call_site() {
        let src = "use std::sync::atomic::Ordering;\nfn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release);\n}\n";
        let u = atomic_uses(src);
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].op, "store");
    }
}
