//! Fixture tests: one deliberately-failing and one passing input per rule.
//!
//! Each fixture under `tests/fixtures/` is linted *as if* it sat at a path
//! where the rule applies (`FileContext::classify` is purely path-shaped,
//! so the claimed path selects the rule's scope). The walker skips
//! `fixtures` directories, so these files never pollute a `--workspace`
//! run.

use simlint::{lint_source, FileContext, Finding};

/// Lints one fixture under a claimed workspace-relative path.
fn lint_as(rel_path: &str, fixture: &str) -> Vec<Finding> {
    lint_source(&FileContext::classify(rel_path), fixture)
}

/// Asserts the failing fixture reports `rule` (and nothing else) while the
/// passing fixture is clean, both under the same claimed path.
fn assert_pair(rule: &str, rel_path: &str, fail: &str, pass: &str) {
    let failing = lint_as(rel_path, fail);
    assert!(
        !failing.is_empty(),
        "{rule}: the failing fixture must produce findings"
    );
    assert!(
        failing.iter().all(|f| f.rule == rule),
        "{rule}: the failing fixture must only trip {rule}, got {failing:?}"
    );
    let passing = lint_as(rel_path, pass);
    assert!(
        passing.is_empty(),
        "{rule}: the passing fixture must be clean, got {passing:?}"
    );
}

#[test]
fn d1_hash_collections_in_digest_crates() {
    assert_pair(
        "D1",
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/d1_fail.rs"),
        include_str!("fixtures/d1_pass.rs"),
    );
    // Outside the digest-affecting crates the same source is fine.
    assert!(lint_as(
        "crates/hypervisor/src/fixture.rs",
        include_str!("fixtures/d1_fail.rs")
    )
    .is_empty());
}

#[test]
fn d2_wall_clock_outside_bench() {
    assert_pair(
        "D2",
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/d2_fail.rs"),
        include_str!("fixtures/d2_pass.rs"),
    );
    // The bench harness is the one place wall-clock reads belong.
    assert!(lint_as(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/d2_fail.rs")
    )
    .is_empty());
}

#[test]
fn d3_entropy_seeded_rngs() {
    assert_pair(
        "D3",
        "crates/workloads/src/fixture.rs",
        include_str!("fixtures/d3_fail.rs"),
        include_str!("fixtures/d3_pass.rs"),
    );
}

#[test]
fn d4_libm_calls_in_digest_crates() {
    assert_pair(
        "D4",
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/d4_fail.rs"),
        include_str!("fixtures/d4_pass.rs"),
    );
    assert_eq!(
        lint_as(
            "crates/cluster/src/fixture.rs",
            include_str!("fixtures/d4_fail.rs")
        )
        .len(),
        3,
        "ln, cos and the f64::exp path are each a finding"
    );
    // Outside the digest-affecting crates, and in tests, libm is fine.
    assert!(lint_as(
        "crates/bench/src/fixture.rs",
        include_str!("fixtures/d4_fail.rs")
    )
    .is_empty());
    assert!(lint_as("tests/fixture.rs", include_str!("fixtures/d4_fail.rs")).is_empty());
}

#[test]
fn p1_panics_in_library_code() {
    assert_pair(
        "P1",
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/p1_fail.rs"),
        include_str!("fixtures/p1_pass.rs"),
    );
    // Tests and binaries may panic freely.
    assert!(lint_as("tests/fixture.rs", include_str!("fixtures/p1_fail.rs")).is_empty());
    assert!(lint_as(
        "crates/bench/src/bin/fixture.rs",
        include_str!("fixtures/p1_fail.rs")
    )
    .is_empty());
}

#[test]
fn s1_forbid_unsafe_on_crate_roots() {
    assert_pair(
        "S1",
        "crates/neu10/src/lib.rs",
        include_str!("fixtures/s1_fail.rs"),
        include_str!("fixtures/s1_pass.rs"),
    );
    // Shim crate roots emulate third-party code and are exempt.
    assert!(lint_as(
        "crates/shims/rand/src/lib.rs",
        include_str!("fixtures/s1_fail.rs")
    )
    .is_empty());
}

#[test]
fn t1_concurrency_outside_audited_sites() {
    assert_pair(
        "T1",
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/t1_fail.rs"),
        include_str!("fixtures/t1_pass.rs"),
    );
    // Outside the digest-affecting crates host concurrency is not simlint's
    // concern.
    assert!(lint_as(
        "crates/hypervisor/src/fixture.rs",
        include_str!("fixtures/t1_fail.rs")
    )
    .is_empty());
}

#[test]
fn x1_event_kinds_need_match_arms() {
    assert_pair(
        "X1",
        "crates/cluster/src/serving.rs",
        include_str!("fixtures/x1_event_fail.rs"),
        include_str!("fixtures/x1_event_pass.rs"),
    );
    let findings = lint_as(
        "crates/cluster/src/serving.rs",
        include_str!("fixtures/x1_event_fail.rs"),
    );
    assert!(
        findings.iter().any(|f| f.message.contains("EV_LOST")),
        "the dead event kind must be named: {findings:?}"
    );
}

#[test]
fn pragma_with_reason_suppresses_its_line() {
    let findings = lint_as(
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/pragma_pass.rs"),
    );
    assert!(
        findings.is_empty(),
        "both pragma forms must suppress their target: {findings:?}"
    );
}

#[test]
fn pragma_without_reason_is_rejected_and_suppresses_nothing() {
    let findings = lint_as(
        "crates/cluster/src/fixture.rs",
        include_str!("fixtures/pragma_no_reason.rs"),
    );
    assert!(
        findings.iter().any(|f| f.rule == "PRAGMA"),
        "a reason-less pragma is itself a finding: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == "D1"),
        "a rejected pragma must not suppress the underlying finding: {findings:?}"
    );
}
