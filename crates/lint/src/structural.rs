//! The structural rule families: determinism-taint, lock-discipline
//! and error-hygiene.
//!
//! Unlike the lexical rules in [`crate::rules`], these operate on the
//! [`crate::parse::Structure`] of a file — function bodies, match
//! arms, let-bindings — so they can follow a value from a
//! nondeterministic source to an output sink, or a lock guard from its
//! acquisition to the end of its scope. The wire-schema family (the
//! fourth) is workspace-level and lives in [`crate::schema`].
//!
//! | rule | invariant it protects |
//! |------|----------------------|
//! | `determinism-taint` | no nondeterministic value flows into a result artifact |
//! | `lock-discipline` | locks nest only in the declared order; no `.lock().unwrap()` |
//! | `error-hygiene` | typed-error matches stay exhaustive; no `unwrap` on `Result` |

use crate::config::RuleConfig;
use crate::lexer::TokenKind;
use crate::parse::Structure;
use crate::rules::{diag_at, FileCtx, RawDiag};

/// Taint sources the rule always knows about, matched against a single
/// identifier token (with context checks below). `lint.toml` can add
/// more via `taint-sources`.
const BUILTIN_SOURCES: [&str; 6] = [
    "now",              // Instant::now / SystemTime::now
    "thread_rng",       // OS-entropy RNG
    "from_entropy",     // OS-entropy RNG
    "current",          // thread::current (thread ids)
    "elapsed",          // Instant deltas
    "nondeterministic", // obs registry's quarantined section
];

/// Output-sink method/macro names. A tainted value passed as an
/// argument to one of these is a determinism leak. `lint.toml` can add
/// more via `taint-sinks`.
const BUILTIN_SINKS: [&str; 10] = [
    "write",
    "write_all",
    "write_fmt",
    "writeln",
    "push_str",
    "print",
    "println",
    "encode",
    "encode_body",
    "render",
];

/// Methods/functions whose return type is `Result` in std or in this
/// workspace — the receivers `error-hygiene` refuses to see unwrapped.
/// `lint.toml` can add more via `result-fns`.
const BUILTIN_RESULT_FNS: [&str; 14] = [
    "parse",
    "from_str",
    "from_utf8",
    "try_into",
    "try_from",
    "recv",
    "try_recv",
    "join",
    "read_to_string",
    "write_all",
    "flush",
    "create",
    "open",
    "decode",
];

/// The workspace's typed error enums. A `match` whose arms name one of
/// these must not hide behind a wildcard arm. `error-enums` in
/// `lint.toml` replaces the list.
const BUILTIN_ERROR_ENUMS: [&str; 7] = [
    "PipelineError",
    "WireError",
    "PersistError",
    "CliError",
    "NetError",
    "SnifferError",
    "LintError",
];

fn list<'a>(configured: &'a [String], builtin: &'a [&'a str]) -> Vec<&'a str> {
    let mut out: Vec<&str> = builtin.to_vec();
    out.extend(configured.iter().map(String::as_str));
    out
}

// ------------------------------------------------------------- taint

/// Where a taint came from, for the diagnostic message.
#[derive(Clone)]
struct Taint {
    origin: String,
    line: u32,
}

/// rule `determinism-taint` — intra-function dataflow from
/// nondeterministic sources (wall clock, hash iteration, thread ids,
/// OS entropy, `nondeterministic`-keyed data) into output sinks
/// (writers, renderers, wire encoders). Where the blanket bans
/// (`no-wall-clock`, `no-hash-iteration`) are scoped out, this rule
/// still catches the dangerous *flow*: reading a clock is fine,
/// writing it into a result artifact is not.
pub fn determinism_taint(
    ctx: &FileCtx<'_>,
    s: &Structure,
    rc: &RuleConfig,
    include_tests: bool,
    out: &mut Vec<RawDiag>,
) {
    if ctx.is_test_file && !include_tests {
        return;
    }
    let sources = list(&rc.taint_sources, &BUILTIN_SOURCES);
    let sinks = list(&rc.taint_sinks, &BUILTIN_SINKS);
    let hash_names = crate::rules::hash_container_names(ctx);

    for f in &s.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if ctx.is_test(f.kw) && !include_tests {
            continue;
        }
        // Pass 1: positions where a source value is produced, with a
        // human-readable origin.
        let mut source_at: Vec<Option<String>> = vec![None; close.saturating_sub(open)];
        let at = |p: usize| p.checked_sub(open).filter(|i| *i < close - open);
        for p in open..close {
            let t = match ctx.tok(p) {
                Some(t) => t,
                None => continue,
            };
            if t.kind != TokenKind::Ident {
                continue;
            }
            let origin = if sources.contains(&t.text) {
                match t.text {
                    "now" | "elapsed" => {
                        // Only clock reads: `X::now()`, `.elapsed()`.
                        let call = ctx.text(p + 1) == "(";
                        let path = ctx.text(p.wrapping_sub(1)) == "::"
                            || ctx.text(p.wrapping_sub(1)) == ".";
                        (call && path).then(|| format!("`{}()` clock read", t.text))
                    }
                    "current" => (ctx.text(p.wrapping_sub(1)) == "::"
                        && ctx.text(p.wrapping_sub(2)) == "thread")
                        .then(|| "`thread::current()` id".to_string()),
                    other => Some(format!("`{other}`")),
                }
            } else if crate::rules::HASH_ITER_METHODS.contains(&t.text)
                && ctx.text(p.wrapping_sub(1)) == "."
                && ctx.text(p + 1) == "("
                && p >= 2
                && hash_names.contains(&ctx.text(p - 2))
            {
                Some(format!("hash-order iteration of `{}`", ctx.text(p - 2)))
            } else {
                None
            };
            if let (Some(origin), Some(i)) = (origin, at(p)) {
                source_at[i] = Some(origin);
            }
        }

        // Pass 2: propagate through let-bindings and assignments until
        // a fixpoint (bounded — each round can only add names).
        let mut tainted: Vec<(String, Taint)> = Vec::new();
        loop {
            let before = tainted.len();
            let mut p = open + 1;
            while p < close {
                // `let [mut] name ... = expr ;` or `name = expr ;`
                let (name_pos, eq_pos) = match ctx.text(p) {
                    "let" => {
                        let mut q = p + 1;
                        if ctx.text(q) == "mut" {
                            q += 1;
                        }
                        if ctx.kind(q) != Some(TokenKind::Ident) {
                            p += 1;
                            continue;
                        }
                        // Skip a type ascription to the `=`.
                        let mut r = q + 1;
                        let mut depth = 0i64;
                        let mut found = None;
                        while r < close {
                            match ctx.text(r) {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                "=" if depth == 0 => {
                                    found = Some(r);
                                    break;
                                }
                                ";" if depth == 0 => break,
                                _ => {}
                            }
                            r += 1;
                        }
                        match found {
                            Some(e) => (q, e),
                            None => {
                                p += 1;
                                continue;
                            }
                        }
                    }
                    _ => {
                        if ctx.kind(p) == Some(TokenKind::Ident)
                            && matches!(ctx.text(p + 1), "=" | "+=")
                            && ctx.text(p.wrapping_sub(1)) != "."
                        {
                            (p, p + 1)
                        } else {
                            p += 1;
                            continue;
                        }
                    }
                };
                // Scan the initializer to the end of the statement.
                let mut r = eq_pos + 1;
                let mut depth = 0i64;
                let mut carried: Option<Taint> = None;
                while r < close {
                    match ctx.text(r) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                    if carried.is_none() {
                        if let Some(orig) = at(r).and_then(|i| source_at[i].clone()) {
                            carried = Some(Taint {
                                origin: orig,
                                line: ctx.tok(r).map_or(0, |t| t.line),
                            });
                        } else if ctx.kind(r) == Some(TokenKind::Ident) {
                            if let Some((_, t)) = tainted.iter().find(|(n, _)| n == ctx.text(r)) {
                                carried = Some(t.clone());
                            }
                        }
                    }
                    r += 1;
                }
                if let Some(t) = carried {
                    let name = ctx.text(name_pos).to_string();
                    if !tainted.iter().any(|(n, _)| *n == name) {
                        tainted.push((name, t));
                    }
                }
                p = r.max(p + 1);
            }
            if tainted.len() == before {
                break;
            }
        }

        // Pass 3: sinks whose argument list carries a source or a
        // tainted name.
        for p in open..close {
            let t = match ctx.tok(p) {
                Some(t) => t,
                None => continue,
            };
            if t.kind != TokenKind::Ident || !sinks.contains(&t.text) {
                continue;
            }
            // `.sink(...)`, `sink!(...)` or `sink(...)` — find the
            // argument parens.
            let args_open = if ctx.text(p + 1) == "(" {
                p + 1
            } else if ctx.text(p + 1) == "!" && ctx.text(p + 2) == "(" {
                p + 2
            } else {
                continue;
            };
            let mut depth = 0i64;
            let mut q = args_open;
            let mut guilty: Option<Taint> = None;
            while q < close {
                match ctx.text(q) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if q > args_open && guilty.is_none() {
                    if let Some(orig) = at(q).and_then(|i| source_at[i].clone()) {
                        guilty = Some(Taint {
                            origin: orig,
                            line: ctx.tok(q).map_or(0, |t| t.line),
                        });
                    } else if ctx.kind(q) == Some(TokenKind::Ident) {
                        if let Some((n, tt)) = tainted.iter().find(|(n, _)| n == ctx.text(q)) {
                            guilty = Some(Taint {
                                origin: format!("`{n}` (tainted by {})", tt.origin),
                                line: tt.line,
                            });
                        }
                    }
                }
                q += 1;
            }
            if let Some(g) = guilty {
                diag_at(
                    out,
                    "determinism-taint",
                    t,
                    format!(
                        "nondeterministic value reaches output sink `{}`: {} (line {}) \
                         flows into a result artifact; quarantine it or derive it \
                         from the inputs",
                        t.text, g.origin, g.line
                    ),
                );
            }
        }
    }
}

// ------------------------------------------------------------- locks

/// One `.lock()` acquisition inside a function body.
struct LockSite {
    /// Lock name: the identifier the `.lock()` chain hangs off.
    name: String,
    /// Code position of the `lock` token.
    pos: usize,
    /// Code position past which the guard is certainly dead.
    scope_end: usize,
}

/// rule `lock-discipline` — nested `Mutex` acquisition must follow the
/// order declared in `lint.toml` (`lock-order`, outermost first), and
/// `.lock().unwrap()` is forbidden: a poisoned lock must either
/// propagate or go through a poison-safe helper
/// (`unwrap_or_else(|p| p.into_inner())`, as `obs` does).
pub fn lock_discipline(
    ctx: &FileCtx<'_>,
    s: &Structure,
    rc: &RuleConfig,
    include_tests: bool,
    out: &mut Vec<RawDiag>,
) {
    if ctx.is_test_file && !include_tests {
        return;
    }
    for f in &s.fns {
        let Some((open, close)) = f.body else {
            continue;
        };
        if ctx.is_test(f.kw) && !include_tests {
            continue;
        }
        let mut sites: Vec<LockSite> = Vec::new();
        for p in open..close {
            let t = match ctx.tok(p) {
                Some(t) => t,
                None => continue,
            };
            if t.kind != TokenKind::Ident
                || t.text != "lock"
                || ctx.text(p.wrapping_sub(1)) != "."
                || ctx.text(p + 1) != "("
            {
                continue;
            }
            let name = receiver_name(ctx, p).unwrap_or("<expr>").to_string();

            // `.lock().unwrap()` / `.lock().expect(...)` right after the
            // call: poison is either recoverable (use the poison-safe
            // helper) or must propagate.
            let call_close = matching_close(ctx, p + 1, close);
            if let Some(cc) = call_close {
                if ctx.text(cc + 1) == "."
                    && matches!(ctx.text(cc + 2), "unwrap" | "expect")
                    && ctx.text(cc + 3) == "("
                {
                    diag_at(
                        out,
                        "lock-discipline",
                        t,
                        format!(
                            "`.lock().{}()` on `{name}` panics on poison; propagate the \
                             PoisonError or recover via `unwrap_or_else(|p| p.into_inner())`",
                            ctx.text(cc + 2)
                        ),
                    );
                }
            }

            // Guard lifetime: a `let`-bound guard lives to the end of
            // the enclosing block; a temporary dies with its statement.
            let scope_end = if is_let_bound(ctx, p, open) {
                enclosing_block_end(ctx, p, open, close)
            } else {
                statement_end(ctx, p, close)
            };
            sites.push(LockSite {
                name,
                pos: p,
                scope_end,
            });
        }

        // Nested acquisition check.
        for i in 0..sites.len() {
            for j in i + 1..sites.len() {
                let (held, inner) = (&sites[i], &sites[j]);
                if inner.pos >= held.scope_end {
                    continue; // the first guard is already dead
                }
                let held_idx = rc.lock_order.iter().position(|n| *n == held.name);
                let inner_idx = rc.lock_order.iter().position(|n| *n == inner.name);
                let tok = match ctx.tok(inner.pos) {
                    Some(t) => t,
                    None => continue,
                };
                if held.name == inner.name {
                    diag_at(
                        out,
                        "lock-discipline",
                        tok,
                        format!(
                            "`{}` is locked again while its own guard may still be \
                             held — self-deadlock",
                            inner.name
                        ),
                    );
                } else {
                    match (held_idx, inner_idx) {
                        (Some(h), Some(n)) if h < n => {} // declared order respected
                        (Some(h), Some(n)) => diag_at(
                            out,
                            "lock-discipline",
                            tok,
                            format!(
                                "`{}` (order {}) acquired while holding `{}` (order {}); \
                                 declared lock-order requires the opposite nesting",
                                inner.name, n, held.name, h
                            ),
                        ),
                        _ => diag_at(
                            out,
                            "lock-discipline",
                            tok,
                            format!(
                                "nested lock acquisition `{}` while holding `{}` is not \
                                 covered by the declared lock-order in lint.toml",
                                inner.name, held.name
                            ),
                        ),
                    }
                }
            }
        }
    }
}

/// The identifier the dotted chain ending at `.lock` hangs off —
/// `self.inner.lock()` resolves to `inner`, `FOO.lock()` to `FOO`.
fn receiver_name<'a>(ctx: &FileCtx<'a>, lock_pos: usize) -> Option<&'a str> {
    let mut q = lock_pos.checked_sub(2)?;
    // Walk over a trailing call/index: `guards[i].lock()`.
    while let ")" | "]" = ctx.text(q) {
        q = matching_open_back(ctx, q)?.checked_sub(1)?;
    }
    (ctx.kind(q) == Some(TokenKind::Ident)).then(|| ctx.text(q))
}

/// Position of the `)` matching the `(` at `open`, bounded by `close`.
fn matching_close(ctx: &FileCtx<'_>, open: usize, close: usize) -> Option<usize> {
    let mut depth = 0i64;
    for p in open..close {
        match ctx.text(p) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
            _ => {}
        }
    }
    None
}

fn matching_open_back(ctx: &FileCtx<'_>, close: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut p = close;
    loop {
        match ctx.text(p) {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
            _ => {}
        }
        p = p.checked_sub(1)?;
    }
}

/// Whether the statement containing `pos` starts with `let` — i.e. the
/// lock guard is bound and outlives the statement.
fn is_let_bound(ctx: &FileCtx<'_>, pos: usize, body_open: usize) -> bool {
    let mut q = pos;
    while q > body_open {
        q -= 1;
        match ctx.text(q) {
            ";" | "{" | "}" => return ctx.text(q + 1) == "let",
            _ => {}
        }
    }
    false
}

/// The `}` closing the innermost block containing `pos`.
fn enclosing_block_end(ctx: &FileCtx<'_>, pos: usize, body_open: usize, close: usize) -> usize {
    let mut depth = 0i64;
    for p in pos..close {
        match ctx.text(p) {
            "{" => depth += 1,
            "}" => {
                if depth == 0 {
                    return p;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    let _ = body_open;
    close
}

/// The `;` ending the statement containing `pos` (or the enclosing
/// block close, for tail expressions).
fn statement_end(ctx: &FileCtx<'_>, pos: usize, close: usize) -> usize {
    let mut depth = 0i64;
    for p in pos..close {
        match ctx.text(p) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    return p;
                }
                depth -= 1;
            }
            ";" if depth == 0 => return p,
            _ => {}
        }
    }
    close
}

// ------------------------------------------------------------ errors

/// rule `error-hygiene` — (a) a `match` whose arms name a typed
/// workspace error must not end in a wildcard `_ =>` arm: a new enum
/// variant must force every match site to decide, not be silently
/// swallowed; (b) `.unwrap()` / `.expect()` on an expression that is
/// recognizably a `Result` (std result-returning calls, or file-local
/// functions declared `-> Result`) is forbidden outside tests — this
/// covers binaries too, where `no-panic-in-lib` does not reach.
pub fn error_hygiene(
    ctx: &FileCtx<'_>,
    s: &Structure,
    rc: &RuleConfig,
    include_tests: bool,
    out: &mut Vec<RawDiag>,
) {
    if ctx.is_test_file && !include_tests {
        return;
    }
    let enums: Vec<&str> = if rc.error_enums.is_empty() {
        BUILTIN_ERROR_ENUMS.to_vec()
    } else {
        rc.error_enums.iter().map(String::as_str).collect()
    };

    // (a) wildcard arms on typed-error matches.
    for m in &s.matches {
        if ctx.is_test(m.kw) && !include_tests {
            continue;
        }
        let mut matched_enum: Option<&str> = None;
        for arm in &m.arms {
            for p in arm.pat.0..arm.pat.1 {
                if ctx.kind(p) == Some(TokenKind::Ident)
                    && ctx.text(p + 1) == "::"
                    && enums.contains(&ctx.text(p))
                {
                    matched_enum = Some(ctx.text(p));
                }
            }
        }
        let Some(enum_name) = matched_enum else {
            continue;
        };
        for arm in &m.arms {
            if !arm.wildcard {
                continue;
            }
            if let Some(t) = ctx.tok(arm.pat.0) {
                diag_at(
                    out,
                    "error-hygiene",
                    t,
                    format!(
                        "wildcard `_` arm in a match on typed error `{enum_name}`; \
                         list the remaining variants so a new one forces handling here"
                    ),
                );
            }
        }
    }

    // (b) unwrap/expect on a recognizable Result.
    let result_fns = list(&rc.result_fns, &BUILTIN_RESULT_FNS);
    let local_result_fns: Vec<&str> = s
        .fns
        .iter()
        .filter(|f| f.returns_result)
        .map(|f| f.name.as_str())
        .collect();
    for p in 0..ctx.code.len() {
        if ctx.is_test(p) && !include_tests {
            continue;
        }
        let t = match ctx.tok(p) {
            Some(t) => t,
            None => continue,
        };
        if t.kind != TokenKind::Ident
            || !matches!(t.text, "unwrap" | "expect")
            || ctx.text(p.wrapping_sub(1)) != "."
            || ctx.text(p + 1) != "("
        {
            continue;
        }
        // The receiver must be a call `X(...)` whose callee is a known
        // Result producer: `"1".parse().unwrap()`, `decode(b).unwrap()`.
        let Some(q) = p.checked_sub(2) else { continue };
        if ctx.text(q) != ")" {
            continue;
        }
        let Some(args_open) = matching_open_back(ctx, q) else {
            continue;
        };
        let Some(callee_pos) = args_open.checked_sub(1) else {
            continue;
        };
        // Skip a turbofish: `parse::<u32>(...)`.
        let callee_pos = if ctx.text(callee_pos) == ">" {
            let mut r = callee_pos;
            let mut angle = 0i64;
            loop {
                match ctx.text(r) {
                    ">" => angle += 1,
                    "<" => {
                        angle -= 1;
                        if angle == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                match r.checked_sub(1) {
                    Some(v) => r = v,
                    None => break,
                }
            }
            // `::<` lexes as `::` `<`; the callee sits before the `::`.
            match r.checked_sub(2) {
                Some(v) if ctx.text(r - 1) == "::" => v,
                _ => continue,
            }
        } else {
            callee_pos
        };
        if ctx.kind(callee_pos) != Some(TokenKind::Ident) {
            continue;
        }
        let callee = ctx.text(callee_pos);
        if result_fns.contains(&callee) || local_result_fns.contains(&callee) {
            diag_at(
                out,
                "error-hygiene",
                t,
                format!(
                    "`.{}()` on the `Result` of `{callee}`; propagate with `?` or \
                     handle the error",
                    t.text
                ),
            );
        }
    }
}
