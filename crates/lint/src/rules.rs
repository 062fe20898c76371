//! The lexical workspace invariant rules, plus dispatch for the
//! structural families in [`crate::structural`].
//!
//! Each lexical rule is a pure function over a [`FileCtx`] — the lexed
//! token stream of one file plus its workspace coordinates (relative
//! path, crate name, lib/test classification). Rules are lexical by
//! design: they over-approximate (a false positive is silenced with a
//! reasoned `lint:allow`) and under-approximate (type-driven cases a
//! lexer cannot see are documented limitations), which is the right
//! contract for a std-only gate that runs in milliseconds on
//! every push. The structural families additionally see the parsed
//! [`crate::parse::Structure`] of the file.
//!
//! | rule | invariant it protects |
//! |------|----------------------|
//! | `no-hash-iteration` | ordered output: hash-order iteration leaks into results |
//! | `no-wall-clock` | replayability: `Instant/SystemTime::now` only at the CLI/bench boundary |
//! | `no-unseeded-entropy` | bit-identical campaigns: all RNGs derive from the campaign seed |
//! | `no-panic-in-lib` | library code returns `Result`, it does not abort the attack pipeline |
//! | `no-float-eq` | float comparisons are epsilon/total_cmp based outside bit-exact codecs |
//! | `forbid-unsafe` | `#![forbid(unsafe_code)]` everywhere; audited `// SAFETY:` islands in `par` |
//! | `determinism-taint` | flow-aware: no nondeterministic value reaches an output sink |
//! | `lock-discipline` | locks nest in declared order; no `.lock().unwrap()` |
//! | `error-hygiene` | no wildcard arms on typed errors; no unwrap on `Result` |
//! | `wire-schema` | codec layout matches the committed golden fingerprint (workspace-level) |

use crate::config::RuleConfig;
use crate::lexer::{Token, TokenKind};
use crate::parse::Structure;

/// Names of all rules, in reporting order. `wire-schema` is
/// workspace-level: it is validated and suppressible like the others
/// but dispatched from [`crate::engine::run`], not per file.
pub const RULE_NAMES: [&str; 10] = [
    "no-hash-iteration",
    "no-wall-clock",
    "no-unseeded-entropy",
    "no-panic-in-lib",
    "no-float-eq",
    "forbid-unsafe",
    "determinism-taint",
    "lock-discipline",
    "error-hygiene",
    "wire-schema",
];

/// Whether a rule also applies inside `#[cfg(test)]` / `#[test]`
/// regions when `lint.toml` does not say otherwise. Safety rules scan
/// everything; determinism rules exempt tests (tests may compare
/// floats exactly, unwrap fixtures, and time themselves).
pub fn default_include_tests(rule: &str) -> bool {
    matches!(rule, "no-unseeded-entropy" | "forbid-unsafe")
}

/// One file prepared for rule checking.
pub struct FileCtx<'a> {
    /// Workspace-relative path with `/` separators.
    pub rel: &'a str,
    /// Short crate name (`core`, `geo`, ..., `root` for the workspace
    /// package; fixture trees follow the same shape).
    pub krate: &'a str,
    /// True for library source: `crates/<c>/src/**` or root `src/**`,
    /// excluding `bin/` directories and `main.rs`.
    pub is_lib: bool,
    /// True for a crate root file (`lib.rs` under a `src/`).
    pub is_crate_root: bool,
    /// True for whole-file test code: integration tests (`tests/**`,
    /// `crates/*/tests/**`) and benches (`*/benches/**`). The
    /// structural rule families treat such files like `#[cfg(test)]`
    /// regions; the lexical rules keep their narrower attribute-based
    /// mask for compatibility with existing scoping.
    pub is_test_file: bool,
    /// All tokens, comments included.
    pub tokens: &'a [Token<'a>],
    /// Indices into `tokens` of non-comment tokens.
    pub code: &'a [usize],
    /// Per-token flag: inside a `#[cfg(test)]` module or `#[test]` fn.
    pub in_test: &'a [bool],
}

impl<'a> FileCtx<'a> {
    /// The `p`-th code token (comments skipped), if any.
    pub(crate) fn tok(&self, p: usize) -> Option<&Token<'a>> {
        self.code.get(p).and_then(|&i| self.tokens.get(i))
    }

    pub(crate) fn text(&self, p: usize) -> &'a str {
        self.tok(p).map_or("", |t| t.text)
    }

    pub(crate) fn kind(&self, p: usize) -> Option<TokenKind> {
        self.tok(p).map(|t| t.kind)
    }

    pub(crate) fn is_test(&self, p: usize) -> bool {
        self.code
            .get(p)
            .and_then(|&i| self.in_test.get(i))
            .copied()
            .unwrap_or(false)
    }
}

/// A violation before suppression filtering: rule name, position and
/// message.
#[derive(Debug, Clone)]
pub struct RawDiag {
    pub rule: &'static str,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

pub(crate) fn diag_at(
    out: &mut Vec<RawDiag>,
    rule: &'static str,
    tok: &Token<'_>,
    message: String,
) {
    out.push(RawDiag {
        rule,
        line: tok.line,
        col: tok.col,
        message,
    });
}

fn diag(out: &mut Vec<RawDiag>, rule: &'static str, tok: &Token<'_>, message: String) {
    diag_at(out, rule, tok, message);
}

/// Dispatches one rule by name. `include_tests` is the resolved
/// (config or default) test-region policy; `structure` is the parsed
/// item/block shape the structural families consume; `rc` carries the
/// per-rule extras (`lock-order`, `error-enums`, taint lists).
/// `wire-schema` is workspace-level and not dispatched here.
pub fn check_rule(
    rule: &str,
    ctx: &FileCtx<'_>,
    structure: &Structure,
    rc: &RuleConfig,
    include_tests: bool,
    out: &mut Vec<RawDiag>,
) {
    match rule {
        "no-hash-iteration" => no_hash_iteration(ctx, include_tests, out),
        "no-wall-clock" => no_wall_clock(ctx, include_tests, out),
        "no-unseeded-entropy" => no_unseeded_entropy(ctx, include_tests, out),
        "no-panic-in-lib" => no_panic_in_lib(ctx, include_tests, out),
        "no-float-eq" => no_float_eq(ctx, include_tests, out),
        "forbid-unsafe" => forbid_unsafe(ctx, &rc.unsafe_crates, out),
        "determinism-taint" => {
            crate::structural::determinism_taint(ctx, structure, rc, include_tests, out)
        }
        "lock-discipline" => {
            crate::structural::lock_discipline(ctx, structure, rc, include_tests, out)
        }
        "error-hygiene" => crate::structural::error_hygiene(ctx, structure, rc, include_tests, out),
        _ => {}
    }
}

/// Iterator-family methods whose visit order is the hasher's.
pub(crate) const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Path-segment tokens skipped when walking back from `HashMap` to the
/// declared name (`macs: std::collections::HashSet<_>`).
fn is_hash_path_filler(text: &str) -> bool {
    // `&` and `mut` let `name: &HashMap<..>` / `name: &mut HashMap<..>`
    // parameters resolve to `name` too.
    matches!(
        text,
        "::" | "std" | "collections" | "hash_map" | "hash_set" | "&" | "mut"
    )
}

/// Every identifier declared with a hash-container type in this file —
/// typed bindings/fields (`name: HashMap<..>`) and inferred bindings
/// (`let name = HashMap::new()`). Shared by `no-hash-iteration` and
/// `determinism-taint`.
pub(crate) fn hash_container_names<'a>(ctx: &FileCtx<'a>) -> Vec<&'a str> {
    let mut names: Vec<&str> = Vec::new();
    for p in 0..ctx.code.len() {
        if !matches!(ctx.text(p), "HashMap" | "HashSet") {
            continue;
        }
        let mut q = p;
        while q > 0 && is_hash_path_filler(ctx.text(q - 1)) {
            q -= 1;
        }
        if q == 0 {
            continue;
        }
        let before = ctx.text(q - 1);
        // Field or typed binding: `name: [std::collections::]HashMap<...>`.
        if before == ":" && q >= 2 && ctx.kind(q - 2) == Some(TokenKind::Ident) {
            names.push(ctx.text(q - 2));
        }
        // Inferred binding: `let name = HashMap::new()`.
        if before == "=" && q >= 2 && ctx.kind(q - 2) == Some(TokenKind::Ident) {
            names.push(ctx.text(q - 2));
        }
    }
    names
}

/// rule `no-hash-iteration` — in ordered-output crates, iterating a
/// `HashMap`/`HashSet` is only allowed when the statement visibly
/// restores an order (a `sort*` call or a collect into a `BTree*`).
///
/// Receiver resolution is name-based: the first pass records every
/// identifier declared with a hash-container type in this file, the
/// second flags iterator-family calls whose receiver's last path
/// segment is such a name, plus `for ... in` loops whose iterated
/// expression mentions one.
fn no_hash_iteration(ctx: &FileCtx<'_>, include_tests: bool, out: &mut Vec<RawDiag>) {
    // Pass 1: names declared as HashMap/HashSet.
    let names = hash_container_names(ctx);

    // Pass 2: iterator-family calls on those names.
    for p in 0..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind == TokenKind::Ident
            && HASH_ITER_METHODS.contains(&t.text)
            && ctx.text(p.wrapping_sub(1)) == "."
            && ctx.text(p + 1) == "("
            && p >= 2
            && names.contains(&ctx.text(p - 2))
            && !statement_restores_order(ctx, p)
        {
            diag(
                out,
                "no-hash-iteration",
                t,
                format!(
                    "iterating hash container `{}` via `.{}()` in ordered-output crate `{}`; \
                     use a BTree collection or sort the drained items",
                    ctx.text(p - 2),
                    t.text,
                    ctx.krate
                ),
            );
        }
        // `for x in [&[mut]] name` loops.
        if t.kind == TokenKind::Ident && t.text == "for" && ctx.text(p + 1) != "<" {
            if let Some(bad) = for_loop_iterates_hash(ctx, p, &names) {
                if !ctx.is_test(p) || include_tests {
                    diag(
                        out,
                        "no-hash-iteration",
                        &bad,
                        format!(
                            "`for` loop over hash container `{}` in ordered-output crate `{}`; \
                             iterate a sorted copy or a BTree collection",
                            bad.text, ctx.krate
                        ),
                    );
                }
            }
        }
    }
}

/// Looks between `for` and its block `{` for an `in` clause whose
/// expression mentions a hash-typed name (or a literal `HashMap` /
/// `HashSet`). Returns the offending token.
fn for_loop_iterates_hash<'a>(
    ctx: &FileCtx<'a>,
    for_pos: usize,
    names: &[&str],
) -> Option<Token<'a>> {
    let mut depth = 0i32;
    let mut seen_in = false;
    for p in for_pos + 1..(for_pos + 64).min(ctx.code.len()) {
        let text = ctx.text(p);
        match text {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 && seen_in => return None,
            "{" if depth == 0 => return None, // `impl .. for T {`
            "in" if depth == 0 && ctx.kind(p) == Some(TokenKind::Ident) => {
                seen_in = true;
                continue;
            }
            _ => {}
        }
        // Skip names that feed a `.keys()`-style call: the method-call
        // pass already reports those, one diagnostic per construct.
        let feeds_iter_method =
            ctx.text(p + 1) == "." && HASH_ITER_METHODS.contains(&ctx.text(p + 2));
        if seen_in
            && ctx.kind(p) == Some(TokenKind::Ident)
            && (names.contains(&text) || text == "HashMap" || text == "HashSet")
            && !feeds_iter_method
            && !statement_restores_order(ctx, p)
        {
            return ctx.tok(p).copied();
        }
    }
    None
}

/// Scans forward from code position `p` to the end of the statement
/// (a `;`, or a `{`/`}` at paren depth zero) looking for evidence the
/// hash order is discarded: a `sort*` call or a `BTreeMap`/`BTreeSet`
/// collect target.
fn statement_restores_order(ctx: &FileCtx<'_>, p: usize) -> bool {
    let mut depth = 0i32;
    for q in p..(p + 96).min(ctx.code.len()) {
        let text = ctx.text(q);
        match text {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            ";" | "{" | "}" if depth == 0 && q > p => return false,
            _ => {}
        }
        if ctx.kind(q) == Some(TokenKind::Ident)
            && (text.starts_with("sort") || text == "BTreeMap" || text == "BTreeSet")
        {
            return true;
        }
    }
    false
}

/// rule `no-wall-clock` — `Instant::now` / `SystemTime::now` read the
/// host clock, which breaks stream/batch replay equivalence. Allowed
/// only on the paths `lint.toml` lists (CLI binaries, benches, the
/// replay pacing module).
fn no_wall_clock(ctx: &FileCtx<'_>, include_tests: bool, out: &mut Vec<RawDiag>) {
    for p in 2..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        if ctx.text(p) == "now"
            && ctx.text(p - 1) == "::"
            && matches!(ctx.text(p - 2), "Instant" | "SystemTime")
        {
            if let Some(t) = ctx.tok(p - 2) {
                diag(
                    out,
                    "no-wall-clock",
                    t,
                    format!(
                        "`{}::now` outside the CLI/bench/replay-pacing boundary; \
                         thread simulated time through instead",
                        t.text
                    ),
                );
            }
        }
    }
}

/// rule `no-unseeded-entropy` — every random stream must derive from
/// the campaign seed (`par::sub_seed` and friends); OS entropy makes
/// runs unreproducible. Applies to tests too: a test drawing real
/// entropy is a flaky test.
fn no_unseeded_entropy(ctx: &FileCtx<'_>, include_tests: bool, out: &mut Vec<RawDiag>) {
    for p in 0..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text {
            "from_entropy" | "thread_rng" | "ThreadRng" | "OsRng" | "getrandom" => true,
            // `rand::random()` (or `random()` imported from rand).
            "random" => {
                ctx.text(p.wrapping_sub(1)) == "::" && ctx.text(p.wrapping_sub(2)) == "rand"
            }
            _ => false,
        };
        if flagged {
            diag(
                out,
                "no-unseeded-entropy",
                t,
                format!(
                    "`{}` draws OS entropy; derive the RNG from the campaign seed \
                     (see `marauder_par::sub_seed`)",
                    t.text
                ),
            );
        }
    }
}

/// rule `no-panic-in-lib` — library code must propagate errors, not
/// abort a multi-hour campaign. Flags `.unwrap()`, `.expect(`,
/// `panic!`, `todo!` and `unimplemented!` outside test regions.
fn no_panic_in_lib(ctx: &FileCtx<'_>, include_tests: bool, out: &mut Vec<RawDiag>) {
    if !ctx.is_lib {
        return;
    }
    for p in 0..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind != TokenKind::Ident {
            continue;
        }
        let hit = match t.text {
            "unwrap" | "expect" => ctx.text(p.wrapping_sub(1)) == "." && ctx.text(p + 1) == "(",
            "panic" | "todo" | "unimplemented" => ctx.text(p + 1) == "!",
            _ => false,
        };
        if hit {
            let hint = match t.text {
                "unwrap" | "expect" => {
                    "return a Result, use total_cmp for float ordering, \
                                        or provide an infallible default"
                }
                _ => "return an error instead of aborting the pipeline",
            };
            diag(
                out,
                "no-panic-in-lib",
                t,
                format!("`{}` in non-test library code; {hint}", t.text),
            );
        }
    }
}

/// Tokens float-eq skips when scanning outward from `==`/`!=` for a
/// float operand (unary minus, grouping, borrows).
fn is_operand_filler(text: &str) -> bool {
    matches!(text, "-" | "(" | ")" | "&")
}

/// rule `no-float-eq` — bare `==`/`!=` with a float operand. Lexical
/// detection: a float literal (or `f32`/`f64` path such as
/// `f64::INFINITY`) adjacent to the comparison, looking through unary
/// minus/parens. Bit-exact modules (snapshot codec) are allow-listed;
/// identifier-vs-identifier float comparisons are beyond a lexer and
/// covered by clippy's `float_cmp` in CI instead.
fn no_float_eq(ctx: &FileCtx<'_>, include_tests: bool, out: &mut Vec<RawDiag>) {
    if !ctx.is_lib {
        return;
    }
    for p in 0..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind != TokenKind::Op || !matches!(t.text, "==" | "!=") {
            continue;
        }
        let mut float_adjacent = false;
        // Look left.
        let mut q = p;
        while q > 0 && is_operand_filler(ctx.text(q - 1)) {
            q -= 1;
        }
        if q > 0 && ctx.kind(q - 1) == Some(TokenKind::Float) {
            float_adjacent = true;
        }
        // Look right.
        let mut r = p + 1;
        while r < ctx.code.len() && is_operand_filler(ctx.text(r)) {
            r += 1;
        }
        if ctx.kind(r) == Some(TokenKind::Float) {
            float_adjacent = true;
        }
        if matches!(ctx.text(r), "f64" | "f32") && ctx.text(r + 1) == "::" {
            float_adjacent = true;
        }
        if float_adjacent {
            diag(
                out,
                "no-float-eq",
                t,
                format!(
                    "bare `{}` on a float operand; compare with an epsilon, \
                     `total_cmp`, or `to_bits` in bit-exact code",
                    t.text
                ),
            );
        }
    }
}

/// rule `forbid-unsafe` — every crate root outside `unsafe-crates`
/// must carry `#![forbid(unsafe_code)]`; `unsafe` tokens are errors
/// outside those crates and must sit under a `// SAFETY:` comment
/// inside them.
fn forbid_unsafe(ctx: &FileCtx<'_>, unsafe_crates: &[String], out: &mut Vec<RawDiag>) {
    let unsafe_allowed = unsafe_crates.iter().any(|c| c == ctx.krate);
    if ctx.is_crate_root && !unsafe_allowed && !has_forbid_unsafe_attr(ctx) {
        out.push(RawDiag {
            rule: "forbid-unsafe",
            line: 1,
            col: 1,
            message: format!(
                "crate `{}` root is missing `#![forbid(unsafe_code)]`",
                ctx.krate
            ),
        });
    }
    for p in 0..ctx.code.len() {
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        // Skip the attribute's own `unsafe_code` token neighborhood:
        // `unsafe` here is a full keyword token, never `unsafe_code`.
        if !unsafe_allowed {
            diag(
                out,
                "forbid-unsafe",
                t,
                format!(
                    "`unsafe` in crate `{}`, which is not in unsafe-crates",
                    ctx.krate
                ),
            );
        } else if !has_safety_comment(ctx, t.line) {
            diag(
                out,
                "forbid-unsafe",
                t,
                "`unsafe` block without a `// SAFETY:` comment in the preceding 3 lines"
                    .to_string(),
            );
        }
    }
}

fn has_forbid_unsafe_attr(ctx: &FileCtx<'_>) -> bool {
    // `#` `!` `[` `forbid` `(` `unsafe_code` `)` `]`
    (0..ctx.code.len()).any(|p| {
        ctx.text(p) == "#"
            && ctx.text(p + 1) == "!"
            && ctx.text(p + 2) == "["
            && ctx.text(p + 3) == "forbid"
            && ctx.text(p + 4) == "("
            && ctx.text(p + 5) == "unsafe_code"
    })
}

/// A comment containing `SAFETY:` on the same line or within the three
/// lines above `line`.
fn has_safety_comment(ctx: &FileCtx<'_>, line: u32) -> bool {
    let lo = line.saturating_sub(3);
    ctx.tokens
        .iter()
        .any(|t| t.is_comment() && t.line >= lo && t.line <= line && t.text.contains("SAFETY:"))
}
