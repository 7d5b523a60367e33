//! `simlint` — the workspace determinism & fleet-safety static-analysis
//! pass.
//!
//! Every guarantee this reproduction ships — the golden `ServingReport`
//! digests, byte-identical Perfetto traces, "same seed ⇒ identical report"
//! — rests on source-level invariants that the compiler does not enforce:
//! no randomized-order iteration on digest paths, no wall-clock reads in
//! the simulation, no entropy-seeded RNGs, no panicking library code, no
//! `unsafe`, and no event kind that quietly falls out of its match.
//! `simlint` walks every `.rs` file in the workspace with its own
//! dependency-free lexer (the environment is offline — no `syn`) and
//! enforces those invariants as named, individually-allowlistable rules.
//! See [`rules::RULES`] for the rule table and
//! `cargo run -p simlint -- --explain RULE` for the long-form rationale.
//!
//! ```text
//! $ cargo run -p simlint -- --workspace
//! crates/cluster/src/serving.rs:55:D1: `HashMap` in digest-affecting crate `cluster` — ...
//! simlint: 1 finding
//! ```
//!
//! A finding is suppressed — one line at a time, reason mandatory — with:
//!
//! ```text
//! // simlint::allow(D1, reason = "point lookups only; never iterated")
//! ```

#![forbid(unsafe_code)]

pub mod lexer;
pub mod pragma;
pub mod report;
pub mod rules;
pub mod walker;

use std::fs;
use std::io;
use std::path::Path;

pub use report::Finding;
pub use rules::{rule_info, RuleInfo, RULES};
pub use walker::{FileContext, FileKind};

/// Lints one file's source text in the given workspace context.
///
/// Most callers want [`lint_workspace`]; this entry point exists so tests
/// can lint fixture sources under any claimed path.
///
/// # Example
///
/// ```
/// use simlint::{lint_source, FileContext};
///
/// let ctx = FileContext::classify("crates/cluster/src/example.rs");
/// // HashMap iteration order is nondeterministic — banned on digest paths.
/// let findings = lint_source(&ctx, "use std::collections::HashMap;\n");
/// assert!(findings.iter().any(|finding| finding.rule == "D1"));
/// // The same line under a reasoned pragma is clean.
/// let allowed = "use std::collections::HashMap; \
///     // simlint::allow(D1, reason = \"point lookups only\")\n";
/// assert!(lint_source(&ctx, allowed).is_empty());
/// ```
pub fn lint_source(ctx: &FileContext, source: &str) -> Vec<Finding> {
    let tokens = lexer::lex(source);
    let pragmas = pragma::Pragmas::parse(&ctx.rel_path, &tokens);
    rules::lint_tokens(ctx, &tokens, &pragmas)
}

/// Lints every `.rs` file under `root`, returning all findings in the
/// canonical (file, line, rule) order. This is the `--workspace` pass.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (path, ctx) in walker::walk(root)? {
        let source = fs::read_to_string(&path)?;
        findings.extend(lint_source(&ctx, &source));
    }
    report::sort_findings(&mut findings);
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_source_composes_lexer_pragmas_and_rules() {
        let ctx = FileContext::classify("crates/cluster/src/x.rs");
        let findings = lint_source(&ctx, "use std::collections::HashMap;\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "D1");
        assert_eq!(findings[0].line, 1);
    }
}
