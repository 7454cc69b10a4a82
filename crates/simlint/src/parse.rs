//! The item parser: from blanked code ([`crate::lexer`]) to a per-file
//! fact table — items, call sites, and rule-relevant expression sites.
//!
//! v1 of simlint matched words on lines; this module is why v2 can do
//! better. It tokenizes the lexer's blanked code (so strings and comments
//! are already gone) and walks the token stream with a scope stack,
//! recognizing:
//!
//! * **items** — `fn` (with qualified names through `impl`/`trait`/`mod`
//!   scopes, `pub`-ness, and body span), `impl` blocks (self-type
//!   extraction, including `impl Trait for Type`), `trait` and `mod`
//!   scopes;
//! * **call sites** — free calls (`helper(`), path calls
//!   (`geo::contention::score(`, `Self::helper(`, turbofish-tolerant),
//!   and method calls (`.record(`), each attributed to the innermost
//!   enclosing function — these become the call-graph edges;
//! * **rule sites** — the expression-level facts the rules consume:
//!   panic sites (`unwrap(`/`expect(` *calls*, `panic!`-family macros),
//!   unordered-map words, wall-clock paths, `partial_cmp` calls,
//!   ambient-env reads, and entropy-seeded RNG constructions.
//!
//! The parser is deliberately heuristic — it does not resolve types or
//! expand macros — but because it distinguishes *definitions* from
//! *calls* it already beats the lexer where it matters: `fn partial_cmp`
//! in a `PartialOrd` impl is not a `partial_cmp` call, and a function
//! named `unwrap` is not an `unwrap()` site.
//!
//! Everything extracted here is pure data ([`FileFacts`]) that depends
//! only on the file's path and contents; rule matching and the graph
//! analysis consume it afterwards.

use crate::lexer::{lex, test_scoped_lines, LexedFile};
use crate::rules::{parse_waiver, Rule};

/// One token of blanked code. Lines are 0-based here; diagnostics add 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// 0-based source line the token starts on.
    pub line: usize,
    /// Payload.
    pub kind: Tok,
}

/// Token payload: identifiers and single-character punctuation. Numeric
/// literals are consumed and dropped (they cannot carry rule facts), and
/// whitespace never produces a token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String),
    /// A single punctuation character (`::` is two `:` tokens).
    Punct(char),
}

/// A function item (with a body) found in the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnFact {
    /// Bare name (`step`).
    pub name: String,
    /// Enclosing `impl`/`trait` self-type name (`World`), if any.
    pub qualifier: Option<String>,
    /// Enclosing module path inside the file (`"imp::detail"`, `""` at
    /// file top level).
    pub module: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based line of the body's closing brace (best effort).
    pub end_line: usize,
    /// Declared with a bare `pub` (restricted `pub(crate)` etc. is false).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` item.
    pub test: bool,
}

/// How a call site names its callee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `.name(…)` — receiver type unknown.
    Method,
    /// `a::b::name(…)` or bare `name(…)` (a one-segment path).
    Path,
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// Index into [`FileFacts::functions`] of the enclosing function.
    pub caller: usize,
    /// Method or path call.
    pub kind: CallKind,
    /// Path segments (method calls have exactly one).
    pub segs: Vec<String>,
    /// 1-based line of the callee name.
    pub line: usize,
}

/// One rule-relevant expression site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFact {
    /// The rule this site can violate.
    pub rule: Rule,
    /// The matched construct (`"unwrap"`, `"std::env::var"`, …) — used in
    /// the diagnostic message.
    pub detail: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function, if inside a body (panic sites use this to
    /// become call-graph panic sources).
    pub func: Option<usize>,
    /// Inside `#[cfg(test)]` code (exempt from enforcement).
    pub test: bool,
}

/// A syntactically valid waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverFact {
    /// 0-based line the comment starts on.
    pub line: usize,
    /// Waived rule.
    pub rule: Rule,
    /// The waiver's line has no code of its own, so it shields the next
    /// line (or, for `panic-reach`, the next `fn`).
    pub standalone: bool,
}

/// A malformed-waiver diagnostic found during extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverDiag {
    /// 1-based line.
    pub line: usize,
    /// Diagnostic code (`waiver-missing-reason`, `waiver-unknown-rule`).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

/// Everything simlint knows about one file, as pure data: the input of
/// the rule and graph phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileFacts {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Function items, in source order.
    pub functions: Vec<FnFact>,
    /// Call sites, in source order.
    pub calls: Vec<CallFact>,
    /// Rule-relevant sites, in source order.
    pub sites: Vec<SiteFact>,
    /// Valid waivers.
    pub waivers: Vec<WaiverFact>,
    /// Malformed-waiver diagnostics.
    pub waiver_diags: Vec<WaiverDiag>,
}

/// Lex and parse `source` into its fact table.
pub fn extract(rel: &str, source: &str) -> FileFacts {
    let lexed = lex(source);
    let mut facts = FileFacts {
        rel: rel.to_string(),
        ..FileFacts::default()
    };
    collect_waivers(&lexed, &mut facts);
    let toks = tokenize(&lexed);
    parse_tokens(&toks, &test_scoped_lines(&lexed), &mut facts);
    facts
}

/// Scan every comment for waivers (valid and malformed).
fn collect_waivers(lexed: &LexedFile, facts: &mut FileFacts) {
    for (ln, line) in lexed.lines.iter().enumerate() {
        for comment in &line.comments {
            match parse_waiver(comment) {
                Ok(None) => {}
                Ok(Some((rule, _reason))) => facts.waivers.push(WaiverFact {
                    line: ln,
                    rule,
                    standalone: line.code.trim().is_empty(),
                }),
                Err((code, message)) => facts.waiver_diags.push(WaiverDiag {
                    line: ln + 1,
                    code,
                    message,
                }),
            }
        }
    }
}

/// Tokenize blanked code, line by line (identifiers never span lines).
pub fn tokenize(lexed: &LexedFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (ln, line) in lexed.lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0usize;
        while i < chars.len() {
            let c = chars[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_ascii_digit() {
                // Numeric literal: digits, radix/float/exponent/suffix
                // runs, all dropped. `1.max(x)` stops before the `.`
                // because `m` is not a digit.
                let mut j = i + 1;
                loop {
                    while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    if j + 1 < chars.len()
                        && chars[j] == '.'
                        && chars[j + 1].is_ascii_digit()
                        && !matches!(chars.get(j.wrapping_sub(1)), Some('.'))
                    {
                        j += 2;
                        continue;
                    }
                    if j < chars.len()
                        && (chars[j] == '+' || chars[j] == '-')
                        && matches!(chars.get(j.wrapping_sub(1)), Some('e') | Some('E'))
                        && matches!(chars.get(j + 1), Some(d) if d.is_ascii_digit())
                    {
                        j += 2;
                        continue;
                    }
                    break;
                }
                i = j;
            } else if c.is_alphabetic() || c == '_' {
                let mut j = i + 1;
                while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.push(Token {
                    line: ln,
                    kind: Tok::Ident(chars[i..j].iter().collect()),
                });
                i = j;
            } else {
                out.push(Token {
                    line: ln,
                    kind: Tok::Punct(c),
                });
                i += 1;
            }
        }
    }
    out
}

/// What a `{` opened.
#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    Impl(String),
    Trait(String),
    Fn(usize),
    Block,
}

/// Keywords that can never be a call or a rule site by themselves.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
    "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "self", "static", "struct", "super", "trait", "true", "type", "unsafe", "use",
    "where", "while",
];

fn ident_at(toks: &[Token], i: usize) -> Option<&str> {
    match toks.get(i) {
        Some(Token {
            kind: Tok::Ident(s),
            ..
        }) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Token], i: usize) -> Option<char> {
    match toks.get(i) {
        Some(Token {
            kind: Tok::Punct(c),
            ..
        }) => Some(*c),
        _ => None,
    }
}

/// Skip a balanced `<…>` starting at `i` (which must point at `<`),
/// tolerating `->` arrows inside (e.g. `fn f<T: Fn() -> u32>`). Returns
/// the index just past the closing `>`.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('-') if punct_at(toks, j + 1) == Some('>') => {
                j += 2;
                continue;
            }
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip a balanced `(…)` starting at `i` (which must point at `(`).
fn skip_parens(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('(') => depth += 1,
            Some(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip a turbofish (`::<…>`) at `i`, if present.
fn skip_turbofish(toks: &[Token], i: usize) -> usize {
    if punct_at(toks, i) == Some(':')
        && punct_at(toks, i + 1) == Some(':')
        && punct_at(toks, i + 2) == Some('<')
    {
        skip_angles(toks, i + 2)
    } else {
        i
    }
}

/// Is the `fn` at token index `i` preceded by a bare `pub`? Skips
/// qualifier keywords (`const unsafe async extern`) and rejects
/// restricted visibility (`pub(crate)` etc.).
fn is_pub_fn(toks: &[Token], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &toks[j].kind {
            Tok::Ident(s) if matches!(s.as_str(), "const" | "unsafe" | "async" | "extern") => {}
            Tok::Ident(s) if s == "pub" => {
                // `pub` directly: bare visibility. (`pub(crate) fn` puts a
                // `)` between `pub` and `fn`, handled below.)
                return true;
            }
            Tok::Punct(')') => {
                // Possibly `pub(…)`. Walk back over the parens.
                let mut depth = 0i32;
                while j > 0 {
                    match punct_at(toks, j) {
                        Some(')') => depth += 1,
                        Some('(') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j -= 1;
                }
                // Restricted visibility is not public API.
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// Extract the self-type name from an `impl` header: the last identifier
/// of the type path after `for` (or after the generics when there is no
/// `for`), stopping at `<`, `where`, or the opening brace.
fn impl_self_type(toks: &[Token], start: usize, brace: usize) -> String {
    let mut i = start;
    // Skip `impl<…>` generics.
    if punct_at(toks, i) == Some('<') {
        i = skip_angles(toks, i);
    }
    // If a `for` appears at angle depth 0, the self type follows it.
    let mut scan = i;
    let mut after_for = None;
    while scan < brace {
        match &toks[scan].kind {
            Tok::Ident(s) if s == "for" => {
                after_for = Some(scan + 1);
                // keep scanning: `for` inside generics was skipped above,
                // the first depth-0 `for` wins.
                break;
            }
            Tok::Punct('<') => {
                scan = skip_angles(toks, scan);
                continue;
            }
            Tok::Ident(s) if s == "where" => break,
            _ => {}
        }
        scan += 1;
    }
    let mut i = after_for.unwrap_or(i);
    let mut last = String::new();
    while i < brace {
        match &toks[i].kind {
            Tok::Ident(s) if s == "where" => break,
            Tok::Ident(s) => last = s.clone(),
            Tok::Punct('<') => {
                i = skip_angles(toks, i);
                continue;
            }
            Tok::Punct('{') => break,
            _ => {}
        }
        i += 1;
    }
    last
}

/// Words that are rule sites wherever they appear (call or not).
fn bare_site(word: &str) -> Option<(Rule, &'static str)> {
    match word {
        "HashMap" => Some((Rule::UnorderedMap, "HashMap")),
        "HashSet" => Some((Rule::UnorderedMap, "HashSet")),
        "RandomState" => Some((Rule::UnorderedMap, "RandomState")),
        "hash_map" => Some((Rule::UnorderedMap, "hash_map")),
        "hash_set" => Some((Rule::UnorderedMap, "hash_set")),
        "SystemTime" => Some((Rule::WallClock, "SystemTime")),
        "thread_rng" => Some((Rule::AmbientRng, "thread_rng")),
        "from_entropy" => Some((Rule::AmbientRng, "from_entropy")),
        "OsRng" => Some((Rule::AmbientRng, "OsRng")),
        "getrandom" => Some((Rule::AmbientRng, "getrandom")),
        _ => None,
    }
}

/// `std::env` reads that break cross-process byte-identity.
const ENV_FNS: &[&str] = &["var", "vars", "var_os", "args", "args_os", "temp_dir"];

/// The main parse loop: one pass over the token stream with a scope
/// stack, emitting functions, calls, and sites into `facts`.
fn parse_tokens(toks: &[Token], test_scoped: &[bool], facts: &mut FileFacts) {
    let mut scopes: Vec<Scope> = Vec::new();
    let mut i = 0usize;

    let is_test_line = |line: usize| -> bool { test_scoped.get(line).copied().unwrap_or(false) };

    while i < toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            Tok::Punct('{') => {
                scopes.push(Scope::Block);
                i += 1;
            }
            Tok::Punct('}') => {
                if let Some(Scope::Fn(fx)) = scopes.last() {
                    if let Some(f) = facts.functions.get_mut(*fx) {
                        f.end_line = line + 1;
                    }
                }
                scopes.pop();
                i += 1;
            }
            Tok::Ident(word) => {
                match word.as_str() {
                    "mod" => {
                        if let Some(name) = ident_at(toks, i + 1) {
                            let name = name.to_string();
                            match punct_at(toks, i + 2) {
                                Some('{') => {
                                    scopes.push(Scope::Mod(name));
                                    i += 3;
                                }
                                _ => i += 2,
                            }
                        } else {
                            i += 1;
                        }
                    }
                    "impl" => {
                        // Find the opening brace of the impl body (or a
                        // `;` first, which would be e.g. `impl Trait` in
                        // type position — not an item).
                        let mut j = i + 1;
                        let mut brace = None;
                        while j < toks.len() {
                            match punct_at(toks, j) {
                                Some('<') => {
                                    j = skip_angles(toks, j);
                                    continue;
                                }
                                Some('(') => {
                                    j = skip_parens(toks, j);
                                    continue;
                                }
                                Some('{') => {
                                    brace = Some(j);
                                    break;
                                }
                                Some(';') | Some(',') | Some(')') | Some('>') => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        match brace {
                            Some(b) => {
                                let name = impl_self_type(toks, i + 1, b);
                                scopes.push(Scope::Impl(name));
                                i = b + 1;
                            }
                            None => i += 1,
                        }
                    }
                    "trait" => {
                        let name = ident_at(toks, i + 1).unwrap_or_default().to_string();
                        let mut j = i + 1;
                        let mut brace = None;
                        while j < toks.len() {
                            match punct_at(toks, j) {
                                Some('<') => {
                                    j = skip_angles(toks, j);
                                    continue;
                                }
                                Some('{') => {
                                    brace = Some(j);
                                    break;
                                }
                                Some(';') => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        match brace {
                            Some(b) => {
                                scopes.push(Scope::Trait(name));
                                i = b + 1;
                            }
                            None => i += 1,
                        }
                    }
                    "fn" => {
                        let Some(name) = ident_at(toks, i + 1) else {
                            // `fn(` type position (`f: fn(u32)`).
                            i += 1;
                            continue;
                        };
                        let name = name.to_string();
                        let is_pub = is_pub_fn(toks, i);
                        let decl_line = line;
                        // Skip generics, then params, then scan the
                        // return type / where clause for `{` or `;` at
                        // bracket depth 0.
                        let mut j = i + 2;
                        if punct_at(toks, j) == Some('<') {
                            j = skip_angles(toks, j);
                        }
                        if punct_at(toks, j) == Some('(') {
                            j = skip_parens(toks, j);
                        }
                        let mut bracket = 0i32;
                        let mut body = None;
                        while j < toks.len() {
                            match punct_at(toks, j) {
                                Some('<') => {
                                    j = skip_angles(toks, j);
                                    continue;
                                }
                                Some('(') => {
                                    j = skip_parens(toks, j);
                                    continue;
                                }
                                Some('[') => bracket += 1,
                                Some(']') => bracket -= 1,
                                Some('{') if bracket == 0 => {
                                    body = Some(j);
                                    break;
                                }
                                Some(';') if bracket == 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        match body {
                            Some(b) => {
                                let (qualifier, module) = scope_context(&scopes);
                                facts.functions.push(FnFact {
                                    name,
                                    qualifier,
                                    module,
                                    line: decl_line + 1,
                                    end_line: decl_line + 1,
                                    is_pub,
                                    test: is_test_line(decl_line),
                                });
                                scopes.push(Scope::Fn(facts.functions.len() - 1));
                                i = b + 1;
                            }
                            None => i = j + 1, // bodyless decl
                        }
                    }
                    _ => {
                        i = process_ident(toks, i, &scopes, test_scoped, facts);
                    }
                }
            }
            _ => i += 1,
        }
    }
}

/// The qualifier (innermost impl/trait self type) and module path of the
/// current scope stack.
fn scope_context(scopes: &[Scope]) -> (Option<String>, String) {
    let mut qualifier = None;
    let mut mods: Vec<&str> = Vec::new();
    for s in scopes {
        match s {
            Scope::Impl(n) | Scope::Trait(n) if !n.is_empty() => qualifier = Some(n.clone()),
            Scope::Mod(n) => mods.push(n),
            _ => {}
        }
    }
    (qualifier, mods.join("::"))
}

/// Innermost enclosing function index, if any.
fn enclosing_fn(scopes: &[Scope]) -> Option<usize> {
    scopes.iter().rev().find_map(|s| match s {
        Scope::Fn(fx) => Some(*fx),
        _ => None,
    })
}

/// Handle one non-keyword identifier: macro sites, bare-word sites, path
/// and method calls, and the call-position rule sites. Returns the index
/// to continue from.
fn process_ident(
    toks: &[Token],
    i: usize,
    scopes: &[Scope],
    test_scoped: &[bool],
    facts: &mut FileFacts,
) -> usize {
    let line = toks[i].line;
    let test = test_scoped.get(line).copied().unwrap_or(false);
    let func = enclosing_fn(scopes);
    let word = match ident_at(toks, i) {
        Some(w) => w.to_string(),
        None => return i + 1,
    };

    // Sites found while scanning this identifier (and any path it heads),
    // applied to `facts` at the end.
    let mut found: Vec<(Rule, String)> = Vec::new();
    let mut call: Option<CallFact> = None;
    let next_i;

    // Bare-word sites fire regardless of call position (including inside
    // `use` statements and type positions).
    if let Some((rule, detail)) = bare_site(&word) {
        found.push((rule, detail.to_string()));
    }

    if punct_at(toks, i + 1) == Some('!') && punct_at(toks, i + 2) != Some('=') {
        // Macro site: `name!` (the `!=` guard keeps comparisons out).
        match word.as_str() {
            "panic" | "todo" | "unimplemented" => found.push((Rule::PanicPath, word.clone())),
            "env" | "option_env" => found.push((Rule::EnvRead, format!("{word}!"))),
            _ => {}
        }
        next_i = i + 2;
    } else if i >= 2 && punct_at(toks, i - 1) == Some(':') && punct_at(toks, i - 2) == Some(':') {
        // Continuation segment of a path already consumed by its head.
        next_i = i + 1;
    } else if i >= 1 && punct_at(toks, i - 1) == Some('.') {
        // Method call: `.name…(`.
        let after = skip_turbofish(toks, i + 1);
        if punct_at(toks, after) == Some('(') {
            match word.as_str() {
                "unwrap" | "expect" => found.push((Rule::PanicPath, word.clone())),
                "partial_cmp" => found.push((Rule::FloatOrder, "partial_cmp".to_string())),
                _ => {
                    if !KEYWORDS.contains(&word.as_str()) && func.is_some() {
                        call = Some(CallFact {
                            caller: func.unwrap_or_default(),
                            kind: CallKind::Method,
                            segs: vec![word.clone()],
                            line: line + 1,
                        });
                    }
                }
            }
        }
        next_i = i + 1;
    } else if KEYWORDS.contains(&word.as_str())
        && !matches!(word.as_str(), "self" | "crate" | "super")
    {
        next_i = i + 1;
    } else {
        // Path head: collect `a::b::c` segments (turbofish-tolerant).
        let mut segs: Vec<String> = vec![word];
        let mut j = i + 1;
        loop {
            let after = skip_turbofish(toks, j);
            if after != j {
                j = after;
                continue;
            }
            if punct_at(toks, j) == Some(':') && punct_at(toks, j + 1) == Some(':') {
                if let Some(next) = ident_at(toks, j + 2) {
                    if next == "_" {
                        break;
                    }
                    segs.push(next.to_string());
                    j += 3;
                    continue;
                }
            }
            break;
        }
        let is_call = punct_at(toks, j) == Some('(');

        // Bare-word sites inside the consumed path (`std::collections::
        // HashMap` is consumed whole, so segments after the head must be
        // checked here).
        for seg in segs.iter().skip(1) {
            if let Some((rule, detail)) = bare_site(seg) {
                found.push((rule, detail.to_string()));
            }
        }
        found.extend(path_sites(&segs, is_call));

        if is_call {
            match segs.last().map(|s| s.as_str()) {
                Some("unwrap") => found.push((Rule::PanicPath, "unwrap".to_string())),
                Some("expect") => found.push((Rule::PanicPath, "expect".to_string())),
                Some("partial_cmp") => found.push((Rule::FloatOrder, "partial_cmp".to_string())),
                _ => {
                    // Strip leading `crate`/`super`/`self` path roots.
                    let cleaned: Vec<String> = segs
                        .iter()
                        .skip_while(|s| matches!(s.as_str(), "crate" | "super" | "self"))
                        .cloned()
                        .collect();
                    let good_last = cleaned
                        .last()
                        .map(|s| !KEYWORDS.contains(&s.as_str()))
                        .unwrap_or(false);
                    if good_last && func.is_some() {
                        call = Some(CallFact {
                            caller: func.unwrap_or_default(),
                            kind: CallKind::Path,
                            segs: cleaned,
                            line: line + 1,
                        });
                    }
                }
            }
        }
        next_i = j.max(i + 1);
    }

    for (rule, detail) in found {
        facts.sites.push(SiteFact {
            rule,
            detail,
            line: line + 1,
            func,
            test,
        });
    }
    if let Some(c) = call {
        facts.calls.push(c);
    }
    next_i
}

/// Path-shaped rule sites: wall-clock paths, env reads, process identity.
fn path_sites(segs: &[String], is_call: bool) -> Vec<(Rule, String)> {
    let mut out = Vec::new();
    let s: Vec<&str> = segs.iter().map(|x| x.as_str()).collect();
    // `std::time::…` (any read of the real clock's types).
    if s.len() >= 2 && s[0] == "std" && s[1] == "time" {
        out.push((Rule::WallClock, "std::time".to_string()));
    }
    // `Instant::now()` — possibly via `std::time::Instant::now()`, which
    // also matched above; dedup happens per (rule, line) at lint time.
    if is_call {
        for w in s.windows(2) {
            if w[0] == "Instant" && w[1] == "now" {
                out.push((Rule::WallClock, "Instant::now".to_string()));
            }
            if w[0] == "process" && w[1] == "id" {
                out.push((Rule::AmbientRng, "process::id".to_string()));
            }
        }
    }
    // `std::env::…` and `env::var(…)`-style reads.
    if s.len() >= 2 && s[0] == "std" && s[1] == "env" {
        let what = if s.len() >= 3 { s[2] } else { "" };
        out.push((Rule::EnvRead, format!("std::env::{what}")));
    } else if s.len() == 2 && s[0] == "env" && ENV_FNS.contains(&s[1]) && is_call {
        out.push((Rule::EnvRead, format!("env::{}", s[1])));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        extract("crates/spider-core/src/x.rs", src)
    }

    #[test]
    fn fn_items_with_qualifiers_and_pub() {
        let f = facts(
            "pub fn free() {}\n\
             pub(crate) fn restricted() {}\n\
             impl World {\n\
                 pub fn step(&mut self) {}\n\
                 fn helper(&self) {}\n\
             }\n\
             impl Iterator for Walker {\n\
                 fn next(&mut self) -> Option<u8> { None }\n\
             }\n\
             mod inner {\n\
                 pub fn nested() {}\n\
             }\n",
        );
        let names: Vec<(String, Option<String>, bool)> = f
            .functions
            .iter()
            .map(|x| (x.name.clone(), x.qualifier.clone(), x.is_pub))
            .collect();
        assert_eq!(
            names,
            vec![
                ("free".into(), None, true),
                ("restricted".into(), None, false),
                ("step".into(), Some("World".into()), true),
                ("helper".into(), Some("World".into()), false),
                ("next".into(), Some("Walker".into()), false),
                ("nested".into(), None, true),
            ]
        );
        assert_eq!(f.functions[5].module, "inner");
    }

    #[test]
    fn fn_definitions_are_not_call_sites() {
        // `fn partial_cmp` / `fn unwrap` are definitions, not calls.
        let f = facts(
            "impl PartialOrd for Entry {\n\
                 fn partial_cmp(&self, other: &Self) -> Option<Ordering> {\n\
                     Some(self.cmp(other))\n\
                 }\n\
             }\n",
        );
        assert!(f.sites.is_empty(), "{:?}", f.sites);
    }

    #[test]
    fn partial_cmp_call_is_a_float_order_site() {
        let f = facts("fn f(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n");
        assert_eq!(f.sites.len(), 1);
        assert_eq!(f.sites[0].rule, Rule::FloatOrder);
        assert_eq!(f.sites[0].line, 1);
    }

    #[test]
    fn env_reads_detected() {
        let f = facts(
            "fn f() {\n\
                 let _a = std::env::var(\"X\");\n\
                 let _b = env!(\"PATH\");\n\
                 let _c = option_env!(\"Y\");\n\
             }\n",
        );
        let rules: Vec<(Rule, usize)> = f.sites.iter().map(|s| (s.rule, s.line)).collect();
        assert_eq!(
            rules,
            vec![(Rule::EnvRead, 2), (Rule::EnvRead, 3), (Rule::EnvRead, 4)]
        );
        assert_eq!(f.sites[0].detail, "std::env::var");
    }

    #[test]
    fn ambient_rng_words_and_process_id() {
        let f = facts(
            "fn f() {\n\
                 let _r = thread_rng();\n\
                 let _p = std::process::id();\n\
             }\n",
        );
        let details: Vec<&str> = f.sites.iter().map(|s| s.detail.as_str()).collect();
        assert_eq!(details, vec!["thread_rng", "process::id"]);
        assert!(f.sites.iter().all(|s| s.rule == Rule::AmbientRng));
    }

    #[test]
    fn calls_collected_with_kinds() {
        let f = facts(
            "fn a() { b(); geo::contention::score(1); x.record(2); Self::helper(); }\n\
             fn b() {}\n",
        );
        let calls: Vec<(CallKind, Vec<String>)> =
            f.calls.iter().map(|c| (c.kind, c.segs.clone())).collect();
        assert_eq!(
            calls,
            vec![
                (CallKind::Path, vec!["b".to_string()]),
                (
                    CallKind::Path,
                    vec!["geo".into(), "contention".into(), "score".into()]
                ),
                (CallKind::Method, vec!["record".to_string()]),
                (CallKind::Path, vec!["Self".into(), "helper".into()]),
            ]
        );
        assert!(f.calls.iter().all(|c| c.caller == 0));
    }

    #[test]
    fn panic_sites_attributed_to_enclosing_fn() {
        let f = facts(
            "fn outer(v: Option<u8>) -> u8 {\n\
                 v.unwrap()\n\
             }\n\
             fn later() { panic!(\"x\") }\n",
        );
        assert_eq!(f.sites.len(), 2);
        assert_eq!(f.sites[0].func, Some(0));
        assert_eq!(f.sites[0].detail, "unwrap");
        assert_eq!(f.sites[1].func, Some(1));
        assert_eq!(f.sites[1].detail, "panic");
    }

    #[test]
    fn unwrap_or_is_not_a_panic_site() {
        let f = facts("fn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }\n");
        assert!(f.sites.is_empty(), "{:?}", f.sites);
    }

    #[test]
    fn turbofish_calls_still_detected() {
        let f = facts("fn f() { let _: Vec<u8> = it.collect::<Vec<u8>>(); q.unwrap::<u8>(); }\n");
        // collect is a method call; unwrap-with-turbofish is a panic site.
        assert!(f
            .calls
            .iter()
            .any(|c| c.kind == CallKind::Method && c.segs == vec!["collect".to_string()]));
        assert!(f
            .sites
            .iter()
            .any(|s| s.rule == Rule::PanicPath && s.detail == "unwrap"));
    }

    #[test]
    fn cfg_test_functions_marked() {
        let f = facts(
            "fn lib() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn t(v: Option<u8>) { v.unwrap(); }\n\
             }\n",
        );
        assert!(!f.functions[0].test);
        assert!(f.functions[1].test);
        assert!(f.sites[0].test);
    }

    #[test]
    fn impl_for_extracts_self_type() {
        let f = facts(
            "impl<T: Clone> fmt::Display for Wrapper<T> {\n\
                 fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result { Ok(()) }\n\
             }\n",
        );
        assert_eq!(f.functions[0].qualifier, Some("Wrapper".to_string()));
    }

    #[test]
    fn body_span_recorded() {
        let f = facts("fn a() {\n  let x = 1;\n}\nfn b() {}\n");
        assert_eq!(f.functions[0].line, 1);
        assert_eq!(f.functions[0].end_line, 3);
        assert_eq!(f.functions[1].line, 4);
    }
}
