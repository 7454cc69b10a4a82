//! The rule engine: tiered policy, fact-based checks, and waiver handling.
//!
//! # Policy tiers
//!
//! | tier | crates | rules enforced |
//! |------|--------|----------------|
//! | **sim** | `sim-engine`, `wifi-mac`, `dhcp`, `tcp-lite`, `mobility`, `geo`, `workload`, `analytical`, `spider-core` | all six line rules + `panic-reach` |
//! | **lib** | `campaign`, `simlint`, `fleet` (except `proto.rs`), `bench` (harness/baseline), the root `src/` facade | `panic-path`, `panic-reach` |
//! | **bin** | `experiments`, `bench` suite bodies (`suites.rs`, `src/bin/`) | *(none)* |
//!
//! Two files get per-file overrides: `crates/fleet/src/proto.rs` and
//! `crates/bench/src/stats.rs` are **sim**-tier — the wire codec and the
//! bootstrap statistics both promise bit-identical results across
//! machines. Test code is exempt everywhere: files under `tests/`,
//! `benches/`, or `examples/` directories, and `#[cfg(test)]` items.
//!
//! The tier table is **default-deny**: a directory under `crates/` with
//! no explicit entry here is itself a violation (`unclassified-crate`),
//! so a future crate cannot silently skip enforcement.
//!
//! # Rules
//!
//! * `unordered-map` — `HashMap`/`HashSet`/`RandomState`: iteration order
//!   is randomized per process; use `BTreeMap`/`BTreeSet`.
//! * `wall-clock` — `SystemTime`, `std::time`, `Instant::now()`: real
//!   time must never leak into simulation state; use `sim_engine::time`.
//! * `panic-path` — `unwrap()`/`expect()` *calls*, `panic!`, `todo!`,
//!   `unimplemented!` outside test code: library crates surface typed
//!   errors instead of crashing the whole campaign. (`assert!`,
//!   `debug_assert!`, and `unreachable!` are *not* flagged: they state
//!   invariants, and a deterministic simulation wants violated
//!   invariants loud.)
//! * `float-order` — `partial_cmp` *calls* (including inside `sort_by`
//!   comparators): NaN makes `partial_cmp` return `None`, and every
//!   recovery (`unwrap_or(Equal)`) yields a non-total order whose sort
//!   result depends on the input permutation. Use `total_cmp`.
//! * `env-read` — `std::env::var`/`args`/…, `env!`, `option_env!`:
//!   cross-process byte-identity means results cannot depend on the
//!   environment block.
//! * `ambient-rng` — `thread_rng`, `from_entropy`, `OsRng`, `getrandom`,
//!   `std::process::id()`: every random draw must flow from an
//!   explicitly seeded/forked `sim_engine::rng::Rng`; entropy-seeded
//!   construction and per-process identity are nondeterminism by
//!   definition.
//! * `panic-reach` — a `pub` function in a sim/lib file whose call graph
//!   transitively reaches an **unwaived** panic site (computed by
//!   [`crate::graph`]; the diagnostic renders the shortest witness call
//!   path). Fires only for paths of length ≥ 1 — the direct site itself
//!   is already a `panic-path` diagnostic.
//!
//! # Waivers
//!
//! A rule can be waived for one line with a comment, either trailing the
//! line or alone on the line directly above it (for `panic-reach`, the
//! line is the `fn` declaration line):
//!
//! ```text
//! // simlint: allow(unordered-map) — membership-only set, never iterated
//! ```
//!
//! The reason is mandatory (`waiver-missing-reason` otherwise), the rule
//! name must exist (`waiver-unknown-rule`), and a waiver that suppresses
//! nothing is itself an error (`waiver-unused`) so stale exceptions
//! cannot linger — including waivers orphaned by a rule engine that got
//! more precise.

use crate::graph::GraphStats;
use crate::parse::{FileFacts, WaiverFact};

/// Every deniable rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `HashMap`/`HashSet`/`RandomState` in simulation state.
    UnorderedMap,
    /// `SystemTime` / `std::time` / `Instant::now` in simulation code.
    WallClock,
    /// `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in library
    /// code.
    PanicPath,
    /// `partial_cmp` calls in simulation code (NaN ⇒ non-total order).
    FloatOrder,
    /// Ambient environment reads in simulation code.
    EnvRead,
    /// Entropy-seeded randomness / per-process identity in simulation
    /// code.
    AmbientRng,
    /// A public function that can transitively reach an unwaived panic
    /// site (graph-level; see [`crate::graph`]).
    PanicReach,
}

impl Rule {
    /// The rule's diagnostic name (what goes inside `error[...]` and
    /// `allow(...)`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedMap => "unordered-map",
            Rule::WallClock => "wall-clock",
            Rule::PanicPath => "panic-path",
            Rule::FloatOrder => "float-order",
            Rule::EnvRead => "env-read",
            Rule::AmbientRng => "ambient-rng",
            Rule::PanicReach => "panic-reach",
        }
    }

    /// Parse a rule name as written in a waiver.
    pub fn from_name(name: &str) -> Option<Rule> {
        match name {
            "unordered-map" => Some(Rule::UnorderedMap),
            "wall-clock" => Some(Rule::WallClock),
            "panic-path" => Some(Rule::PanicPath),
            "float-order" => Some(Rule::FloatOrder),
            "env-read" => Some(Rule::EnvRead),
            "ambient-rng" => Some(Rule::AmbientRng),
            "panic-reach" => Some(Rule::PanicReach),
            _ => None,
        }
    }
}

/// Which rule set applies to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Simulation crates: full determinism + panic policy.
    Sim,
    /// Non-simulation library crates: panic policy only.
    Lib,
    /// Binary / harness crates: nothing enforced.
    Bin,
    /// Test code: exempt.
    Test,
}

impl Tier {
    /// The line-level rules enforced at this tier (`panic-reach` is
    /// enforced at the graph level for Sim and Lib, see
    /// [`Tier::reach_enforced`]).
    pub fn rules(self) -> &'static [Rule] {
        match self {
            Tier::Sim => &[
                Rule::UnorderedMap,
                Rule::WallClock,
                Rule::PanicPath,
                Rule::FloatOrder,
                Rule::EnvRead,
                Rule::AmbientRng,
            ],
            Tier::Lib => &[Rule::PanicPath],
            Tier::Bin | Tier::Test => &[],
        }
    }

    /// Is `panic-reach` enforced for public functions in this tier?
    pub fn reach_enforced(self) -> bool {
        matches!(self, Tier::Sim | Tier::Lib)
    }
}

/// Crates whose state feeds the deterministic simulation.
pub const SIM_CRATES: &[&str] = &[
    "sim-engine",
    "wifi-mac",
    "dhcp",
    "tcp-lite",
    "mobility",
    "geo",
    "workload",
    "analytical",
    "spider-core",
];

/// Non-sim crates with an explicit tier. The union of this list and
/// [`SIM_CRATES`] is the complete allow-list: any other directory under
/// `crates/` is an `unclassified-crate` violation.
pub const OTHER_CRATES: &[&str] = &["bench", "campaign", "experiments", "fleet", "simlint"];

/// Is `name` a crate the tier table knows about?
pub fn known_crate(name: &str) -> bool {
    SIM_CRATES.contains(&name) || OTHER_CRATES.contains(&name)
}

/// Classify a workspace-relative path (forward slashes) into a tier.
/// Unknown crates fall back to `Lib` (the safe default: panic policy
/// still applies) — but the walker reports them as `unclassified-crate`
/// so the fallback can never be load-bearing for long.
pub fn tier_of(rel_path: &str) -> Tier {
    let parts: Vec<&str> = rel_path.split('/').collect();
    // Anything under a tests/, benches/, or examples/ directory is test
    // code, wherever it lives.
    if parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
    {
        return Tier::Test;
    }
    if parts.first() == Some(&"crates") && parts.len() >= 2 {
        let krate = parts[1];
        if SIM_CRATES.contains(&krate) {
            return Tier::Sim;
        }
        if krate == "experiments" {
            return Tier::Bin;
        }
        if krate == "fleet" && parts.last() == Some(&"proto.rs") {
            // The framed wire codec runs on both ends of the worker
            // protocol, so it gets the full determinism tier; the
            // scheduler/worker around it are process management (OS
            // children, wall-clock deadlines) and stay at Lib.
            return Tier::Sim;
        }
        if krate == "bench" {
            // The bootstrap statistics behind the regression gate promise
            // bit-identical verdicts under a fixed seed, so they answer to
            // the full determinism tier. The suite bodies and the gate CLI
            // are harness code (wall-clock timing, unwrap-on-setup is
            // fine); the timer/baseline plumbing stays at Lib.
            if parts.last() == Some(&"stats.rs") {
                return Tier::Sim;
            }
            if parts.last() == Some(&"suites.rs") || parts.contains(&"bin") {
                return Tier::Bin;
            }
        }
        return Tier::Lib;
    }
    // The root facade crate (src/lib.rs).
    Tier::Lib
}

/// One diagnostic: either a rule violation or a bad waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Diagnostic code (`unordered-map`, …, or a `waiver-*` code).
    pub code: String,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// `file:line: error[code]: message` — the rustc-style line.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: error[{}]: {}",
            self.file, self.line, self.code, self.message
        )
    }
}

const WAIVER_MARKER: &str = "simlint:";

/// Scan one comment for a waiver. Returns `Ok(None)` when the comment is
/// not a waiver at all, `Err(violation-parts)` for malformed waivers.
pub(crate) fn parse_waiver(comment: &str) -> Result<Option<(Rule, String)>, (String, String)> {
    // A waiver must *begin* the comment. This deliberately excludes doc
    // comments (their text starts with the extra `/` or `!`), so prose that
    // merely quotes the syntax is never parsed as a waiver.
    let trimmed = comment.trim_start();
    let Some(rest) = trimmed.strip_prefix(WAIVER_MARKER) else {
        return Ok(None);
    };
    let rest = rest.trim_start();
    let Some(args) = rest.strip_prefix("allow") else {
        return Err((
            "waiver-unknown-rule".to_string(),
            format!(
                "malformed simlint comment (expected `simlint: allow(<rule>) — <reason>`): `{}`",
                comment.trim()
            ),
        ));
    };
    let args = args.trim_start();
    let Some(inner_start) = args.strip_prefix('(') else {
        return Err((
            "waiver-unknown-rule".to_string(),
            "waiver missing `(<rule>)`".to_string(),
        ));
    };
    let Some(close) = inner_start.find(')') else {
        return Err((
            "waiver-unknown-rule".to_string(),
            "waiver missing closing `)`".to_string(),
        ));
    };
    let rule_name = inner_start[..close].trim();
    let Some(rule) = Rule::from_name(rule_name) else {
        return Err((
            "waiver-unknown-rule".to_string(),
            format!("unknown rule `{rule_name}` in waiver"),
        ));
    };
    // Everything after the `)` — minus separator punctuation — is the
    // mandatory reason.
    let reason = inner_start[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':', ','])
        .trim();
    if reason.is_empty() {
        return Err((
            "waiver-missing-reason".to_string(),
            format!(
                "waiver for `{}` has no reason; every exception must say why",
                rule.name()
            ),
        ));
    }
    Ok(Some((rule, reason.to_string())))
}

/// The diagnostic message for a matched site.
fn site_message(rule: Rule, detail: &str) -> String {
    match rule {
        Rule::UnorderedMap => format!(
            "`{detail}` has process-randomized iteration order; use BTreeMap/BTreeSet \
             (or justify with `// simlint: allow(unordered-map) — <reason>`)"
        ),
        Rule::WallClock => match detail {
            "SystemTime" => "`SystemTime` reads the wall clock; simulation code must use \
                             `sim_engine::time`"
                .to_string(),
            "Instant::now" => "`Instant::now()` reads the wall clock; virtual time comes from \
                               the event queue"
                .to_string(),
            _ => "`std::time` is wall-clock time; simulation code must use `sim_engine::time`"
                .to_string(),
        },
        Rule::PanicPath => match detail {
            "unwrap" | "expect" => format!(
                "`{detail}()` panics on the error path; return a typed error \
                 (or justify with `// simlint: allow(panic-path) — <reason>`)"
            ),
            _ => format!("`{detail}!` aborts the campaign; return a typed error instead"),
        },
        Rule::FloatOrder => "`partial_cmp` is not a total order (NaN compares as `None`), so \
                             float sorts depend on the input permutation; use `f64::total_cmp` \
                             (or justify with `// simlint: allow(float-order) — <reason>`)"
            .to_string(),
        Rule::EnvRead => format!(
            "`{detail}` reads the ambient environment; cross-process byte-identity forbids it \
             in simulation code (or justify with `// simlint: allow(env-read) — <reason>`)"
        ),
        Rule::AmbientRng => format!(
            "`{detail}` is ambient entropy/process identity; randomness must flow from an \
             explicitly seeded `sim_engine::rng::Rng` fork \
             (or justify with `// simlint: allow(ambient-rng) — <reason>`)"
        ),
        Rule::PanicReach => detail.to_string(),
    }
}

/// The per-file lint outcome, plus the cross-file facts the graph phase
/// needs (which panic sites were waived, and which `panic-reach` waivers
/// exist — their used/unused status is only decidable globally).
#[derive(Debug, Clone, Default)]
pub struct LocalOutcome {
    /// Local violations (everything except `panic-reach` and
    /// `waiver-unused` for `panic-reach` waivers).
    pub violations: Vec<Violation>,
    /// Indices into `facts.sites` of panic sites suppressed by a waiver —
    /// these do not count as panic sources in the reachability analysis.
    pub waived_panic_sites: Vec<usize>,
    /// `allow(panic-reach)` waivers, usage decided by [`crate::graph`].
    pub reach_waivers: Vec<WaiverFact>,
}

/// Run the tier's line rules over one file's facts.
pub fn lint_local(facts: &FileFacts) -> LocalOutcome {
    let tier = tier_of(&facts.rel);
    let mut out = LocalOutcome::default();

    // Malformed waivers are rejected in every tier — noise is noise.
    for d in &facts.waiver_diags {
        out.violations.push(Violation {
            file: facts.rel.clone(),
            line: d.line,
            code: d.code.clone(),
            message: d.message.clone(),
        });
    }

    let mut used = vec![false; facts.waivers.len()];
    let enforced = tier.rules();
    // One diagnostic per (rule, line): the parser may record several
    // pattern matches for one construct (`std::time::Instant::now()`).
    let mut seen: Vec<(Rule, usize)> = Vec::new();

    for (sx, site) in facts.sites.iter().enumerate() {
        if site.test || !enforced.contains(&site.rule) {
            continue;
        }
        // A waiver covers the hit when it names the rule and sits on the
        // same line (trailing) or alone on the line above. Waiver lines
        // are 0-based, site lines 1-based.
        let waiver = facts.waivers.iter().position(|w| {
            w.rule == site.rule
                && (w.line + 1 == site.line || (w.standalone && w.line + 2 == site.line))
        });
        if let Some(wx) = waiver {
            used[wx] = true;
            if site.rule == Rule::PanicPath {
                out.waived_panic_sites.push(sx);
            }
            continue;
        }
        if seen.contains(&(site.rule, site.line)) {
            continue;
        }
        seen.push((site.rule, site.line));
        out.violations.push(Violation {
            file: facts.rel.clone(),
            line: site.line,
            code: site.rule.name().to_string(),
            message: site_message(site.rule, &site.detail),
        });
    }

    // Waivers that shielded nothing are stale — reject them so the
    // exception list can only shrink. `panic-reach` waivers are deferred
    // to the graph phase, which alone knows whether they are used.
    for (wx, w) in facts.waivers.iter().enumerate() {
        if w.rule == Rule::PanicReach {
            out.reach_waivers.push(w.clone());
            continue;
        }
        if !used[wx] {
            out.violations.push(Violation {
                file: facts.rel.clone(),
                line: w.line + 1,
                code: "waiver-unused".to_string(),
                message: format!(
                    "waiver for `{}` suppresses nothing on its line{}; remove it",
                    w.rule.name(),
                    if w.standalone { " or the next" } else { "" }
                ),
            });
        }
    }

    out.violations
        .sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.code.cmp(&b.code)));
    out
}

/// Lint a set of files' facts as one workspace: local rules per file,
/// then the cross-file call-graph analysis. Returns the violations,
/// sorted by [`sort_violations`], and the call graph's shape.
pub(crate) fn lint_facts(files: &[FileFacts]) -> (Vec<Violation>, GraphStats) {
    let outcomes: Vec<LocalOutcome> = files.iter().map(lint_local).collect();
    let graph = crate::graph::analyze(files, &outcomes);
    let mut violations: Vec<Violation> = outcomes.into_iter().flat_map(|o| o.violations).collect();
    violations.extend(graph.violations);
    sort_violations(&mut violations);
    (violations, graph.stats)
}

/// Order violations by file, then line, then rule name.
pub(crate) fn sort_violations(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.code.cmp(&b.code))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_source as run;

    const SIM: &str = "crates/spider-core/src/world.rs";

    #[test]
    fn hashmap_in_sim_crate_denied() {
        let v = run(SIM, "use std::collections::HashMap;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].code, "unordered-map");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn hashmap_in_comment_or_string_ignored() {
        let v = run(SIM, "// HashMap order notes\nlet s = \"HashMap\";\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unwrap_denied_in_lib_but_not_bin() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(run("crates/campaign/src/lib.rs", src).len(), 1);
        assert!(run("crates/experiments/src/main.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_and_expect_err_not_flagged() {
        let v = run(
            SIM,
            "let a = x.unwrap_or(0); let b = y.unwrap_or_default();\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn fn_named_unwrap_is_a_definition_not_a_site() {
        // v1's lexer flagged `fn unwrap(` as a panic path; the parser
        // knows a definition from a call.
        let v = run(
            SIM,
            "impl Wrapper {\n    fn unwrap(self) -> u8 { self.0 }\n}\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_module_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(run(SIM, src).is_empty());
    }

    #[test]
    fn trailing_waiver_suppresses() {
        let src = "use std::collections::HashMap; // simlint: allow(unordered-map) — docs only\n";
        assert!(run(SIM, src).is_empty());
    }

    #[test]
    fn standalone_waiver_covers_next_line() {
        let src = "// simlint: allow(panic-path) — invariant: queue starts non-empty\nlet x = q.pop().unwrap();\n";
        assert!(run("crates/campaign/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_without_reason_rejected() {
        let src = "use std::collections::HashMap; // simlint: allow(unordered-map)\n";
        let v = run(SIM, src);
        assert!(v.iter().any(|x| x.code == "waiver-missing-reason"), "{v:?}");
        // And the underlying violation still stands: a reasonless waiver
        // waives nothing.
        assert!(v.iter().any(|x| x.code == "unordered-map"), "{v:?}");
    }

    #[test]
    fn unknown_rule_in_waiver_rejected() {
        let v = run(SIM, "// simlint: allow(no-such-rule) — because\n");
        assert!(v.iter().any(|x| x.code == "waiver-unknown-rule"), "{v:?}");
    }

    #[test]
    fn unused_waiver_rejected() {
        let v = run(
            SIM,
            "// simlint: allow(unordered-map) — stale excuse\nlet x = 1;\n",
        );
        assert!(v.iter().any(|x| x.code == "waiver-unused"), "{v:?}");
    }

    #[test]
    fn wall_clock_denied_in_sim() {
        let v = run(SIM, "let t = std::time::Instant::now();\n");
        assert!(v.iter().any(|x| x.code == "wall-clock"), "{v:?}");
        // One diagnostic, not one per matched pattern.
        assert_eq!(v.len(), 1, "{v:?}");
        // sim_engine's virtual Instant is fine.
        let ok = run(SIM, "let t: sim_engine::time::Instant = queue.now();\n");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn float_order_flags_partial_cmp_calls_not_impls() {
        let call = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n";
        let v = run(SIM, call);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].code, "float-order");
        // A PartialOrd impl *defining* partial_cmp is not a call.
        let imp = "impl PartialOrd for S {\n\
                   \x20   fn partial_cmp(&self, o: &Self) -> Option<Ordering> { Some(self.cmp(o)) }\n\
                   }\n";
        assert!(run(SIM, imp).is_empty());
        // Lib tier does not enforce float-order.
        assert!(run("crates/campaign/src/lib.rs", call).is_empty());
    }

    #[test]
    fn env_read_flagged_in_sim_only() {
        let src = "fn f() -> bool { std::env::var(\"X\").is_ok() }\n";
        let v = run(SIM, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].code, "env-read");
        assert!(run("crates/campaign/src/lib.rs", src).is_empty());
        let mac = "fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }\n";
        assert!(run(SIM, mac).iter().any(|x| x.code == "env-read"));
    }

    #[test]
    fn ambient_rng_flagged_in_sim() {
        for src in [
            "fn f() { let r = thread_rng(); }\n",
            "fn f() -> u32 { std::process::id() }\n",
            "fn f() { let r = Rng::from_entropy(); }\n",
        ] {
            let v = run(SIM, src);
            assert!(v.iter().any(|x| x.code == "ambient-rng"), "{src}: {v:?}");
        }
        // Seeded construction is the sanctioned path.
        assert!(run(SIM, "fn f() { let r = Rng::new(42); }\n").is_empty());
    }

    #[test]
    fn panic_reach_flags_public_transitive_panic_with_witness() {
        let src = "pub fn entry() { mid() }\n\
                   fn mid() { deep() }\n\
                   fn deep(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let v = run(SIM, src);
        let reach: Vec<&Violation> = v.iter().filter(|x| x.code == "panic-reach").collect();
        assert_eq!(reach.len(), 1, "{v:?}");
        assert_eq!(reach[0].line, 1);
        assert!(
            reach[0].message.contains("entry") && reach[0].message.contains("deep"),
            "witness path missing: {}",
            reach[0].message
        );
        // The direct site is still its own panic-path diagnostic.
        assert!(v.iter().any(|x| x.code == "panic-path" && x.line == 3));
    }

    #[test]
    fn panic_reach_not_raised_for_direct_sites_or_waived_panics() {
        // Direct site: panic-path only (path length 0).
        let direct = "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let v = run(SIM, direct);
        assert!(v.iter().all(|x| x.code != "panic-reach"), "{v:?}");
        // A waived panic site is not a reachability source.
        let waived = "pub fn entry() { deep(None) }\n\
                      fn deep(v: Option<u8>) -> u8 {\n\
                      \x20   // simlint: allow(panic-path) — invariant: callers pass Some\n\
                      \x20   v.unwrap()\n\
                      }\n";
        assert!(run(SIM, waived).is_empty(), "{:?}", run(SIM, waived));
    }

    #[test]
    fn panic_reach_waiver_on_the_fn_suppresses_and_unused_is_flagged() {
        let src = "// simlint: allow(panic-reach) — documented: entry() panics on empty input\n\
                   pub fn entry() { deep(None); }\n\
                   fn deep(v: Option<u8>) -> u8 { v.unwrap() }\n";
        let v = run(SIM, src);
        assert!(
            v.iter().all(|x| x.code != "panic-reach"),
            "waiver must suppress: {v:?}"
        );
        // The deep unwrap is still a local violation.
        assert!(v.iter().any(|x| x.code == "panic-path"));
        // A reach waiver that shields nothing is stale.
        let stale = "// simlint: allow(panic-reach) — nothing here panics\n\
                     pub fn quiet() {}\n";
        let v = run(SIM, stale);
        assert!(v.iter().any(|x| x.code == "waiver-unused"), "{v:?}");
    }

    #[test]
    fn tests_dirs_fully_exempt() {
        let src = "use std::collections::HashMap;\nfn f() { x.unwrap(); }\n";
        assert!(run("crates/spider-core/tests/determinism.rs", src).is_empty());
        assert!(run("tests/full_system.rs", src).is_empty());
    }

    #[test]
    fn fleet_protocol_is_sim_tier_rest_is_lib() {
        assert_eq!(tier_of("crates/fleet/src/proto.rs"), Tier::Sim);
        assert_eq!(tier_of("crates/fleet/src/scheduler.rs"), Tier::Lib);
        assert_eq!(tier_of("crates/fleet/src/worker.rs"), Tier::Lib);
        assert_eq!(tier_of("crates/fleet/tests/scheduler_e2e.rs"), Tier::Test);
        // The codec must not read wall clocks; the scheduler may (its
        // deadlines are real time), but still answers for panic paths.
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(!run("crates/fleet/src/proto.rs", clock).is_empty());
        assert!(run("crates/fleet/src/scheduler.rs", clock).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert!(!run("crates/fleet/src/scheduler.rs", unwrap).is_empty());
    }

    #[test]
    fn bench_stats_is_sim_tier_suites_and_bin_are_bin_tier() {
        assert_eq!(tier_of("crates/bench/src/stats.rs"), Tier::Sim);
        assert_eq!(tier_of("crates/bench/src/suites.rs"), Tier::Bin);
        assert_eq!(tier_of("crates/bench/src/bin/bench.rs"), Tier::Bin);
        assert_eq!(tier_of("crates/bench/src/timer.rs"), Tier::Lib);
        assert_eq!(tier_of("crates/bench/src/baseline.rs"), Tier::Lib);
        assert_eq!(tier_of("crates/bench/benches/des_core.rs"), Tier::Test);
        // The statistics must be deterministic: no wall clock, no
        // unordered maps; the harness may read real time (it measures
        // it) but still answers for panic paths.
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(!run("crates/bench/src/stats.rs", clock).is_empty());
        assert!(run("crates/bench/src/timer.rs", clock).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert!(!run("crates/bench/src/timer.rs", unwrap).is_empty());
        assert!(run("crates/bench/src/suites.rs", unwrap).is_empty());
    }

    #[test]
    fn spider_core_fleet_module_is_sim_tier() {
        // Client fleets are world state: per-client RNG streams, station
        // addressing, and counters all feed the byte-identity contract,
        // so the module answers to the full determinism tier.
        assert_eq!(tier_of("crates/spider-core/src/fleet.rs"), Tier::Sim);
        let hash = "use std::collections::HashMap;\n";
        assert!(!run("crates/spider-core/src/fleet.rs", hash).is_empty());
        let clock = "fn f() { let t = std::time::Instant::now(); }\n";
        assert!(!run("crates/spider-core/src/fleet.rs", clock).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert!(!run("crates/spider-core/src/fleet.rs", unwrap).is_empty());
    }

    #[test]
    fn geo_is_sim_tier() {
        assert_eq!(tier_of("crates/geo/src/grid.rs"), Tier::Sim);
        assert_eq!(tier_of("crates/geo/src/lib.rs"), Tier::Sim);
        // Spatial queries feed simulation state, so the full determinism
        // tier applies: no hash maps, no wall clocks, no panic paths.
        let hash = "use std::collections::HashMap;\n";
        assert!(!run("crates/geo/src/grid.rs", hash).is_empty());
        let unwrap = "fn f() { x.unwrap(); }\n";
        assert!(!run("crates/geo/src/rank.rs", unwrap).is_empty());
    }

    #[test]
    fn unknown_crate_falls_back_to_lib_tier() {
        assert!(!known_crate("mystery"));
        assert_eq!(tier_of("crates/mystery/src/lib.rs"), Tier::Lib);
        // The panic policy still applies while the crate is unclassified.
        assert!(!run("crates/mystery/src/lib.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn render_is_rustc_style() {
        let v = run(SIM, "use std::collections::HashSet;\n");
        assert_eq!(
            v[0].render(),
            "crates/spider-core/src/world.rs:1: error[unordered-map]: \
             `HashSet` has process-randomized iteration order; use BTreeMap/BTreeSet \
             (or justify with `// simlint: allow(unordered-map) — <reason>`)"
        );
    }
}
