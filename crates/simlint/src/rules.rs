//! The rule set: what each rule forbids, where it applies, and the token
//! scans that enforce it.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | `D1` | no `HashMap`/`HashSet` in digest-affecting crates |
//! | `D2` | no wall-clock (`Instant`/`SystemTime`) or `thread::sleep` outside `crates/bench` and `crates/shims` |
//! | `D3` | no RNG construction without an explicit seed (`thread_rng`, `from_entropy`, `OsRng`, ...) |
//! | `D4` | no libm transcendental calls (`ln`, `exp`, `cos`, `powf`, ...) in digest-affecting crates outside audited sites |
//! | `P1` | no `unwrap()`/`expect()`/`panic!`/`todo!`/`unimplemented!` in library code |
//! | `S1` | every non-shim library crate root carries `#![forbid(unsafe_code)]` |
//! | `T1` | no host-concurrency primitives (`Mutex`/`RwLock`/`Condvar`/`mpsc`, `thread::scope`/`spawn`) in digest-affecting crates outside audited, pragma-documented sites |
//! | `X1` | every `EV_*` event-kind constant has a match arm |
//!
//! Scoping decisions (also printed by `--explain`):
//!
//! * **Test code is exempt from `D1`/`P1`/`X1`**: `#[cfg(test)] mod` blocks,
//!   `tests/`, `benches/` and `examples/` may take shortcuts — they cannot
//!   reach a shipped digest and a failed `unwrap` there *is* the test
//!   failing. `D2`/`D3` apply even to tests: a test that reads the wall
//!   clock or an entropy-seeded RNG is flaky by construction.
//! * **`crates/shims/**` is exempt from everything**: those files emulate
//!   external crates (`rand`, `criterion`) whose real implementations we do
//!   not control; `criterion`'s timer is exactly the wall clock `D2` bans
//!   elsewhere.
//! * **Binaries (`src/bin/**`, `src/main.rs`) are exempt from `P1`** — a
//!   figure generator aborting with a message is acceptable CLI behavior —
//!   but not from `D1`/`D2`/`D3`: a nondeterministic figure harness would
//!   still corrupt reproducibility claims.

use std::collections::BTreeSet;

use crate::lexer::{Token, TokenKind};
use crate::pragma::Pragmas;
use crate::report::Finding;
use crate::walker::{FileContext, FileKind};

/// The pseudo-rule under which malformed `simlint::allow` pragmas are
/// reported. Not itself allowlistable.
pub const RULE_PRAGMA: &str = "PRAGMA";

/// Crates whose iteration order can reach a `ServingReport`, golden digest
/// or exported trace — the blast radius of rule `D1`.
pub const DIGEST_CRATES: &[&str] = &["cluster", "neu10", "autopilot", "workloads", "npu-sim"];

/// The float methods rule `D4` flags: each calls into the platform libm,
/// whose results IEEE-754 does not pin to the last bit. `sqrt` is exact and
/// stays allowed.
const LIBM_METHODS: &[&str] = &[
    "ln", "log", "log2", "log10", "ln_1p", "exp", "exp2", "exp_m1", "powf", "sin", "cos", "tan",
    "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
    "cbrt", "hypot",
];

/// Static description of one rule, served by `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule identifier (`D1`, ...).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// The full `--explain` text: motivation, scope, and how to fix or
    /// suppress a finding.
    pub explain: &'static str,
}

/// Every enforced rule, in display order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D1",
        summary: "no HashMap/HashSet in digest-affecting crates",
        explain: "D1 — no HashMap/HashSet in digest-affecting crates\n\
                  \n\
                  Iterating a std HashMap/HashSet visits entries in a randomized order\n\
                  (SipHash keys differ per process), so any iteration whose order can\n\
                  reach a ServingReport, golden digest, or exported Perfetto trace\n\
                  breaks the repo's `same seed => identical report` guarantee. The\n\
                  digest-affecting crates are: cluster, neu10, autopilot, workloads,\n\
                  npu-sim. Use BTreeMap/BTreeSet, or collect-and-sort before iterating.\n\
                  Scope: library code of those crates; #[cfg(test)] mods, tests/,\n\
                  benches/ and examples/ are exempt.\n\
                  A point-lookup-only map may keep hashing for speed behind\n\
                  `// simlint::allow(D1, reason = \"...\")` documenting why its\n\
                  iteration order can never leak.",
    },
    RuleInfo {
        id: "D2",
        summary: "no wall-clock or sleep outside crates/bench and crates/shims",
        explain: "D2 — no wall-clock reads or sleeps outside crates/bench and crates/shims\n\
                  \n\
                  std::time::Instant, std::time::SystemTime and std::thread::sleep\n\
                  couple simulation behavior to the host's clock and scheduler: two\n\
                  runs of the same seed would diverge. Simulated time is the u64\n\
                  cycle counter; only the benchmarking crate (which measures real\n\
                  wall time on purpose) and the vendored shims (criterion's timer)\n\
                  may touch the host clock.\n\
                  Scope: every file outside crates/bench and crates/shims, test code\n\
                  included — a test that reads the wall clock is flaky by\n\
                  construction.",
    },
    RuleInfo {
        id: "D3",
        summary: "no RNG construction without an explicit seed",
        explain: "D3 — no RNG construction without an explicit seed\n\
                  \n\
                  thread_rng(), SeedableRng::from_entropy(), OsRng and friends pull\n\
                  entropy from the OS, so no two runs see the same stream and every\n\
                  replay guarantee dies. All randomness must flow from an explicit\n\
                  seed argument (StdRng::seed_from_u64(seed), splitmix64 stream\n\
                  splitting) so the simulation is a pure function of its inputs.\n\
                  Scope: every non-shim file, test code included.",
    },
    RuleInfo {
        id: "D4",
        summary: "no libm transcendental calls in digest-affecting crates outside audited sites",
        explain:
            "D4 — no libm transcendental calls in digest-affecting crates outside audited sites\n\
                  \n\
                  ln, exp, cos, powf and the other transcendental float methods call\n\
                  the platform libm, whose results IEEE-754 does not pin to the last\n\
                  bit, so every such call on a digest path ties the golden digests to\n\
                  one libm. They are also the costliest arithmetic in the serving\n\
                  loop: a call per service-time draw or per latency-sketch record\n\
                  is exactly what the one-uniform lognormal table and the sketch's\n\
                  boundary table removed. sqrt is exact in IEEE-754 and stays\n\
                  allowed.\n\
                  Flagged: `.name(...)` method calls and `f64::name` / `f32::name`\n\
                  paths for ln, log, log2, log10, ln_1p, exp, exp2, exp_m1, powf,\n\
                  the trig and hyperbolic functions, cbrt and hypot.\n\
                  Scope: library code of the digest-affecting crates (cluster, neu10,\n\
                  autopilot, workloads, npu-sim); #[cfg(test)] mods, tests/, benches/\n\
                  and examples/ are exempt.\n\
                  A call that runs once per table, calibration or arrival rather\n\
                  than per draw or record stays behind\n\
                  `// simlint::allow(D4, reason = \"...\")` saying how often it runs.",
    },
    RuleInfo {
        id: "P1",
        summary: "no unwrap()/expect()/panic!/todo! in library code",
        explain: "P1 — no unwrap()/expect()/panic!/todo!/unimplemented! in library code\n\
                  \n\
                  A panicking library turns a recoverable condition into a fleet-wide\n\
                  abort — unacceptable in a serving control plane. Return Result,\n\
                  use unwrap_or/unwrap_or_else, or restructure so the invariant is\n\
                  type-enforced.\n\
                  Scope: library code (crates/*/src) outside #[cfg(test)] mods.\n\
                  Binaries (src/bin, src/main.rs), tests/, benches/ and examples/\n\
                  are exempt.\n\
                  An invariant the types cannot express may keep a documented\n\
                  expect() behind `// simlint::allow(P1, reason = \"...\")` stating\n\
                  why it cannot fire.",
    },
    RuleInfo {
        id: "S1",
        summary: "crate roots must carry #![forbid(unsafe_code)]",
        explain: "S1 — every non-shim library crate root carries #![forbid(unsafe_code)]\n\
                  \n\
                  forbid (unlike deny) cannot be overridden by an inner allow, so a\n\
                  single attribute at the crate root is a machine-checked proof the\n\
                  whole crate is safe Rust. The simulator has no business doing\n\
                  unsafe anything; keeping the attribute everywhere means a future\n\
                  `unsafe` block is a compile error, not a review comment.\n\
                  Scope: src/lib.rs of every non-shim workspace member.",
    },
    RuleInfo {
        id: "T1",
        summary: "no host-concurrency primitives in digest-affecting crates outside audited sites",
        explain:
            "T1 — no host-concurrency primitives in digest-affecting crates outside audited sites\n\
                  \n\
                  Threads, channels and locks let the host scheduler into the\n\
                  simulation: any result that depends on lock acquisition or message\n\
                  arrival order differs run to run, which silently voids the\n\
                  `same seed => identical report` guarantee the golden digests pin.\n\
                  Flagged: Mutex, RwLock, Condvar, the mpsc module, thread::scope,\n\
                  thread::Builder and any .spawn(...) call, in the digest-affecting\n\
                  crates (cluster, neu10, autopilot, workloads, npu-sim).\n\
                  Scope: library code of those crates, #[cfg(test)] mods included —\n\
                  a test whose outcome rides on thread scheduling is flaky by\n\
                  construction.\n\
                  Concurrency that provably cannot reach a digest — the\n\
                  ownership-transfer worker pool in cluster::par (jobs move by\n\
                  value, results re-sort by partition tag), a lookup-only memo\n\
                  table — stays behind\n\
                  `// simlint::allow(T1, reason = \"...\")` stating why scheduling\n\
                  order is unobservable.",
    },
    RuleInfo {
        id: "X1",
        summary: "event-kind constants need match arms",
        explain: "X1 — event-kind exhaustiveness\n\
                  \n\
                  Every `const EV_*` event-kind constant declared in a library\n\
                  file must appear as a `EV_* =>` match arm in that file: a declared\n\
                  kind the event loop never matches is either dead or — worse —\n\
                  silently swallowed by a `_ =>` arm.\n\
                  Metric names need no lint: the registry and the time-series\n\
                  recorder take the `Metric` enum (crates/cluster/src/obs/registry.rs),\n\
                  so an undeclared or misspelled metric is a compile error.\n\
                  Scope: library code outside #[cfg(test)] mods.",
    },
];

/// The meta-rule behind [`RULE_PRAGMA`] findings. Not in [`RULES`] because
/// it is not allowlistable — a broken suppression cannot suppress itself —
/// but `--explain PRAGMA` still documents it.
pub const PRAGMA_INFO: RuleInfo = RuleInfo {
    id: RULE_PRAGMA,
    summary: "allow pragmas must be well-formed, name a real rule, and give a reason",
    explain: "PRAGMA — malformed suppression pragmas are findings themselves\n\
              \n\
              The only sanctioned suppression is\n\
              `// simlint::allow(RULE, reason = \"...\")`, one line at a time:\n\
              trailing on a code line it excuses that line, standalone it\n\
              excuses the next. The reason is mandatory — an exemption\n\
              without a written justification is indistinguishable from a\n\
              silenced bug — so a pragma that omits it, leaves it empty,\n\
              names an unknown rule, or fails to parse is reported as a\n\
              PRAGMA finding and suppresses nothing. There is deliberately\n\
              no file- or block-level form, and no allowlisting of PRAGMA\n\
              itself: a broken suppression cannot suppress itself.",
};

/// Whether `id` names an enforced (and therefore allowlistable) rule.
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Looks up a rule for `--explain` (enforced rules plus the PRAGMA
/// meta-rule).
///
/// # Example
///
/// ```
/// use simlint::{rule_info, RULES};
///
/// let t1 = rule_info("T1").expect("T1 is an enforced rule");
/// assert!(t1.summary.contains("concurrency"));
/// // Every enforced rule is explainable; unknown ids are not.
/// assert!(RULES.iter().all(|rule| rule_info(rule.id).is_some()));
/// assert!(rule_info("Z9").is_none());
/// ```
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    if id == RULE_PRAGMA {
        return Some(&PRAGMA_INFO);
    }
    RULES.iter().find(|r| r.id == id)
}

/// Lints one file's token stream.
pub fn lint_tokens(ctx: &FileContext, tokens: &[Token], pragmas: &Pragmas) -> Vec<Finding> {
    let mut findings: Vec<Finding> = pragmas.findings.clone();
    if ctx.is_shim {
        return findings;
    }
    let in_test = test_regions(tokens);
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokenKind::Comment)
        .collect();

    let digest_crate = DIGEST_CRATES.contains(&ctx.crate_name.as_str());
    let lib_kind = ctx.kind == FileKind::Lib;
    let report = |findings: &mut Vec<Finding>, line: u32, rule: &'static str, msg: String| {
        if !pragmas.allows(rule, line) {
            findings.push(Finding::new(&ctx.rel_path, line, rule, msg));
        }
    };

    // --- Single-token scans: D1, D2 (idents), D3. -------------------------
    for &(i, token) in &code {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let name = token.text.as_str();
        if digest_crate && lib_kind && !in_test[i] && (name == "HashMap" || name == "HashSet") {
            report(
                &mut findings,
                token.line,
                "D1",
                format!(
                    "`{name}` in digest-affecting crate `{}` — iteration order is \
                     nondeterministic; use BTreeMap/BTreeSet or a sorted collect",
                    ctx.crate_name
                ),
            );
        }
        if ctx.crate_name != "bench" && (name == "Instant" || name == "SystemTime") {
            report(
                &mut findings,
                token.line,
                "D2",
                format!(
                    "`{name}` reads the host wall clock — simulated time is the \
                     cycle counter; only crates/bench and crates/shims may do this"
                ),
            );
        }
        if digest_crate && lib_kind && matches!(name, "Mutex" | "RwLock" | "Condvar" | "mpsc") {
            report(
                &mut findings,
                token.line,
                "T1",
                format!(
                    "`{name}` is a host-concurrency primitive in digest-affecting \
                     crate `{}` — scheduling order must not reach a report; keep \
                     concurrency in audited, pragma-documented sites",
                    ctx.crate_name
                ),
            );
        }
        if matches!(name, "thread_rng" | "from_entropy" | "OsRng" | "ThreadRng") {
            report(
                &mut findings,
                token.line,
                "D3",
                format!(
                    "`{name}` constructs an entropy-seeded RNG — all randomness \
                     must flow from an explicit seed (e.g. StdRng::seed_from_u64)"
                ),
            );
        }
    }

    // --- Sequence scans over non-comment tokens. --------------------------
    for w in 0..code.len() {
        let t = code[w].1;
        // D2: `thread :: sleep`.
        if ctx.crate_name != "bench"
            && t.is_ident("sleep")
            && w >= 2
            && code[w - 1].1.is_punct(':')
            && code[w - 2].1.is_punct(':')
            && w >= 3
            && code[w - 3].1.is_ident("thread")
        {
            report(
                &mut findings,
                t.line,
                "D2",
                "`thread::sleep` blocks on the host scheduler — simulated delays \
                 are events on the cycle clock"
                    .to_string(),
            );
        }
        // T1: `thread :: scope|spawn|Builder` paths and `.spawn(` calls in
        // digest-affecting crates.
        if digest_crate && lib_kind {
            let thread_path = w >= 3
                && code[w - 1].1.is_punct(':')
                && code[w - 2].1.is_punct(':')
                && code[w - 3].1.is_ident("thread")
                && (t.is_ident("scope") || t.is_ident("spawn") || t.is_ident("Builder"));
            let dot_spawn = t.is_ident("spawn")
                && w >= 1
                && code[w - 1].1.is_punct('.')
                && w + 1 < code.len()
                && code[w + 1].1.is_punct('(');
            if thread_path || dot_spawn {
                report(
                    &mut findings,
                    t.line,
                    "T1",
                    format!(
                        "`{}` spawns host threads in digest-affecting crate `{}` — \
                         scheduling order must not reach a report; keep concurrency \
                         in audited, pragma-documented sites",
                        if thread_path {
                            format!("thread::{}", t.text)
                        } else {
                            ".spawn(...)".to_string()
                        },
                        ctx.crate_name
                    ),
                );
            }
        }
        // D4: `.ln(` style method calls and `f64::ln` style paths.
        if digest_crate
            && lib_kind
            && !in_test[code[w].0]
            && t.kind == TokenKind::Ident
            && LIBM_METHODS.contains(&t.text.as_str())
        {
            let method = w >= 1
                && code[w - 1].1.is_punct('.')
                && w + 1 < code.len()
                && code[w + 1].1.is_punct('(');
            let path = w >= 3
                && code[w - 1].1.is_punct(':')
                && code[w - 2].1.is_punct(':')
                && (code[w - 3].1.is_ident("f64") || code[w - 3].1.is_ident("f32"));
            if method || path {
                report(
                    &mut findings,
                    t.line,
                    "D4",
                    format!(
                        "`{}` calls the platform libm in digest-affecting crate `{}` — \
                         its result is not pinned to the last bit; precompute a table, \
                         or document how rarely it runs with an allow pragma",
                        t.text, ctx.crate_name
                    ),
                );
            }
        }
        // P1: `.unwrap(` / `.expect(` and `panic!` / `todo!` / `unimplemented!`.
        if lib_kind && ctx.kind != FileKind::Bin && !in_test[code[w].0] {
            let dot_call = w >= 1
                && code[w - 1].1.is_punct('.')
                && w + 1 < code.len()
                && code[w + 1].1.is_punct('(');
            if dot_call && (t.is_ident("unwrap") || t.is_ident("expect")) {
                report(
                    &mut findings,
                    t.line,
                    "P1",
                    format!(
                        "`.{}()` can panic in library code — return Result, use \
                         unwrap_or_else, or document the invariant with an allow \
                         pragma",
                        t.text
                    ),
                );
            }
            let bang = w + 1 < code.len() && code[w + 1].1.is_punct('!');
            if bang && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented") {
                report(
                    &mut findings,
                    t.line,
                    "P1",
                    format!(
                        "`{}!` aborts in library code — return an error instead",
                        t.text
                    ),
                );
            }
        }
        // X1(a): `const EV_* :` declarations and `EV_* =>` match arms are
        // collected below; nothing to do in this pass.
    }

    // --- S1: crate roots must forbid unsafe code. -------------------------
    if ctx.is_crate_root && !has_forbid_unsafe(&code) {
        report(
            &mut findings,
            1,
            "S1",
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    // --- X1(a): per-file event-kind exhaustiveness. -----------------------
    if lib_kind {
        let mut declared: Vec<(String, u32, usize)> = Vec::new();
        let mut matched: BTreeSet<String> = BTreeSet::new();
        for w in 0..code.len() {
            let t = code[w].1;
            if t.kind != TokenKind::Ident || !t.text.starts_with("EV_") {
                continue;
            }
            let is_decl = w >= 1
                && code[w - 1].1.is_ident("const")
                && w + 1 < code.len()
                && code[w + 1].1.is_punct(':');
            if is_decl {
                declared.push((t.text.clone(), t.line, code[w].0));
            } else if w + 1 < code.len() && code[w + 1].1.kind == TokenKind::FatArrow {
                matched.insert(t.text.clone());
            }
        }
        for (name, line, index) in declared {
            if !in_test[index] && !matched.contains(&name) {
                report(
                    &mut findings,
                    line,
                    "X1",
                    format!(
                        "event kind `{name}` is declared but never appears as a \
                         `{name} =>` match arm — the event loop would silently \
                         drop it"
                    ),
                );
            }
        }
    }

    findings
}

/// Whether the token stream contains a crate-level `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(code: &[(usize, &Token)]) -> bool {
    code.windows(8).any(|w| {
        w[0].1.is_punct('#')
            && w[1].1.is_punct('!')
            && w[2].1.is_punct('[')
            && w[3].1.is_ident("forbid")
            && w[4].1.is_punct('(')
            && w[5].1.is_ident("unsafe_code")
            && w[6].1.is_punct(')')
            && w[7].1.is_punct(']')
    })
}

/// Marks which tokens sit inside a `#[cfg(test)] mod ... { ... }` region.
///
/// Returns a vector parallel to `tokens`. The detector is conservative: a
/// `#[cfg(test)]` attribute on anything other than a braced `mod` marks
/// nothing.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind != TokenKind::Comment)
        .collect();
    let tok = |ci: usize| -> &Token { &tokens[code[ci]] };
    let mut ci = 0usize;
    while ci + 3 < code.len() {
        // Match `# [ cfg ( ... test ... ) ]`.
        if !(tok(ci).is_punct('#') && tok(ci + 1).is_punct('[') && tok(ci + 2).is_ident("cfg")) {
            ci += 1;
            continue;
        }
        let mut j = ci + 3;
        if j >= code.len() || !tok(j).is_punct('(') {
            ci += 1;
            continue;
        }
        // Scan the balanced cfg(...) body for a `test` ident.
        let mut depth = 0usize;
        let mut saw_test = false;
        while j < code.len() {
            if tok(j).is_punct('(') {
                depth += 1;
            } else if tok(j).is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tok(j).is_ident("test") {
                saw_test = true;
            }
            j += 1;
        }
        // Expect the closing `]`, then (skipping further attributes) `mod
        // name {`.
        j += 1;
        if !saw_test || j >= code.len() || !tok(j).is_punct(']') {
            ci += 1;
            continue;
        }
        j += 1;
        while j + 1 < code.len() && tok(j).is_punct('#') && tok(j + 1).is_punct('[') {
            // Skip a subsequent attribute: to its matching `]`.
            let mut depth = 0usize;
            j += 1;
            while j < code.len() {
                if tok(j).is_punct('[') {
                    depth += 1;
                } else if tok(j).is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
        }
        if j + 2 < code.len() && tok(j).is_ident("mod") && tok(j + 2).is_punct('{') {
            // Mark from the opening brace to its match.
            let mut depth = 0usize;
            let mut k = j + 2;
            while k < code.len() {
                if tok(k).is_punct('{') {
                    depth += 1;
                } else if tok(k).is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            let start = code[ci];
            let end = code.get(k).copied().unwrap_or(tokens.len() - 1);
            for flag in in_test.iter_mut().take(end + 1).skip(start) {
                *flag = true;
            }
            ci = k.min(code.len());
        }
        ci += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(rel_path: &str, src: &str) -> Vec<Finding> {
        let ctx = FileContext::classify(rel_path);
        let tokens = lex(src);
        let pragmas = Pragmas::parse(rel_path, &tokens);
        lint_tokens(&ctx, &tokens, &pragmas)
    }

    #[test]
    fn d1_fires_only_in_digest_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint("crates/cluster/src/x.rs", src).len(), 1);
        assert_eq!(lint("crates/hypervisor/src/x.rs", src).len(), 0);
        assert_eq!(lint("crates/cluster/tests/x.rs", src).len(), 0);
    }

    #[test]
    fn d1_exempts_cfg_test_mod() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn g() { let _ = HashMap::<u8, u8>::new(); }\n}\n";
        assert_eq!(lint("crates/neu10/src/x.rs", src).len(), 0);
    }

    #[test]
    fn d2_fires_everywhere_but_bench_and_shims() {
        let src = "use std::time::Instant;\nfn f() { std::thread::sleep(d); }\n";
        assert_eq!(lint("crates/cluster/src/x.rs", src).len(), 2);
        assert_eq!(lint("crates/bench/src/bin/perf.rs", src).len(), 0);
        assert_eq!(lint("crates/shims/criterion/src/lib.rs", src).len(), 0);
        assert_eq!(lint("tests/integration.rs", src).len(), 2);
    }

    #[test]
    fn d3_bans_entropy_rngs() {
        let src = "let mut rng = rand::thread_rng();\n";
        assert_eq!(lint("crates/workloads/src/x.rs", src).len(), 1);
        let seeded = "let mut rng = StdRng::seed_from_u64(7);\n";
        assert_eq!(lint("crates/workloads/src/x.rs", seeded).len(), 0);
    }

    #[test]
    fn d4_flags_libm_calls_in_digest_library_code() {
        let src = "fn f(x: f64) -> f64 { x.ln() + f64::exp(x) + x.sqrt() + x.powi(2) }\n";
        let findings = lint("crates/neu10/src/x.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "D4"));
        // Outside the digest crates, and in tests, the same source is fine.
        assert!(lint("crates/bench/src/x.rs", src).is_empty());
        assert!(lint("tests/t.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn g(x: f64) -> f64 { x.cos() }\n}\n";
        assert!(lint("crates/cluster/src/x.rs", in_test).is_empty());
        // A field or a non-call named like a libm function is not a call.
        let not_calls = "fn f(s: S) -> u64 { s.ln + s.exp.len() }\n";
        assert!(lint("crates/cluster/src/x.rs", not_calls).is_empty());
    }

    #[test]
    fn p1_scope_and_patterns() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\"); }\n";
        assert_eq!(lint("crates/cluster/src/x.rs", src).len(), 2);
        // Binaries, tests and examples may panic.
        assert_eq!(lint("crates/bench/src/bin/fig.rs", src).len(), 0);
        assert_eq!(lint("tests/t.rs", src).len(), 0);
        assert_eq!(lint("examples/e.rs", src).len(), 0);
        // unwrap_or_else is fine; so is a () -bang-free `panic` path ident.
        let ok = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }\n";
        assert_eq!(lint("crates/cluster/src/x.rs", ok).len(), 0);
    }

    #[test]
    fn s1_requires_forbid_on_crate_roots() {
        assert_eq!(lint("crates/neu10/src/lib.rs", "pub fn f() {}\n").len(), 1);
        assert_eq!(
            lint(
                "crates/neu10/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() {}\n"
            )
            .len(),
            0
        );
        // Non-root files don't need the attribute.
        assert_eq!(lint("crates/neu10/src/x.rs", "pub fn f() {}\n").len(), 0);
    }

    #[test]
    fn t1_concurrency_primitives_in_digest_crates() {
        let src = "use std::sync::{mpsc, Mutex};\nfn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        // Line 1 carries two flagged idents; line 2 thread::scope plus .spawn(.
        assert_eq!(lint("crates/cluster/src/x.rs", src).len(), 4);
        // Outside the digest-affecting crates the same source is fine.
        assert_eq!(lint("crates/hypervisor/src/x.rs", src).len(), 0);
        // Unlike D1, #[cfg(test)] mods are NOT exempt: a scheduling-dependent
        // test is flaky by construction.
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert_eq!(lint("crates/cluster/src/x.rs", in_test).len(), 1);
        // An audited site suppresses with a reasoned pragma.
        let allowed = "use std::sync::mpsc; // simlint::allow(T1, reason = \"audited pool\")\n";
        assert_eq!(lint("crates/cluster/src/x.rs", allowed).len(), 0);
    }

    #[test]
    fn x1_event_kinds_need_match_arms() {
        let bad = "const EV_LOST: u8 = 9;\nfn f(k: u8) { match k { 0 => {}, _ => {} } }\n";
        let findings = lint("crates/cluster/src/x.rs", bad);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("EV_LOST"));
        let good = "const EV_OK: u8 = 1;\nfn f(k: u8) { match k { EV_OK => {}, _ => {} } }\n";
        assert_eq!(lint("crates/cluster/src/x.rs", good).len(), 0);
    }

    #[test]
    fn pragmas_suppress_exactly_one_line() {
        let src = "use std::collections::HashMap; // simlint::allow(D1, reason = \"lookup-only\")\nuse std::collections::HashSet;\n";
        let findings = lint("crates/cluster/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn shims_are_fully_exempt() {
        let src = "use std::time::Instant;\nfn f() { x.unwrap(); panic!(); }\n";
        assert_eq!(lint("crates/shims/criterion/src/lib.rs", src).len(), 0);
    }
}
