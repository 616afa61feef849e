//! Golden tests: every rule fires on its fixture at the expected
//! lines, suppression hygiene is enforced, the binary reports
//! `file:line:rule` and exits nonzero, and the real workspace is
//! lint-clean.

use rio_lint::{check, check_all, classify, FileMeta};
use std::path::{Path, PathBuf};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints a fixture as if it were non-test source inside an event-path
/// crate, returning `(line, rule)` pairs in report order.
fn lint_fixture(name: &str, is_crate_root: bool) -> Vec<(u32, &'static str)> {
    let src = std::fs::read_to_string(fixture_path(name)).expect("read fixture");
    let meta = FileMeta {
        rel: format!("crates/rio-order/src/{name}"),
        krate: "rio-order".to_string(),
        is_crate_root,
        in_test_dir: false,
    };
    check(&src, &meta).iter().map(|f| (f.line, f.rule)).collect()
}

#[test]
fn d1_fires_on_raw_hash_collections() {
    // Line 12 declares and constructs a HashMap: two findings. The
    // comment, the string, the suppressed HashSet and the #[cfg(test)]
    // module must all stay silent.
    assert_eq!(
        lint_fixture("d1_hashmap.rs", false),
        vec![(3, "D1"), (4, "D1"), (12, "D1"), (12, "D1")]
    );
}

#[test]
fn d2_fires_on_wall_clock_reads() {
    // The `use` on line 3 is fine (only `::now()` call sites are
    // banned); the suppressed read on line 12 is excused.
    assert_eq!(
        lint_fixture("d2_wallclock.rs", false),
        vec![(7, "D2"), (8, "D2")]
    );
}

#[test]
fn d3_fires_on_rand_outside_simrng() {
    // Line 7 hits twice: the `rand::` path and the thread_rng call.
    assert_eq!(
        lint_fixture("d3_rand.rs", false),
        vec![(3, "D3"), (7, "D3"), (7, "D3"), (8, "D3")]
    );
}

#[test]
fn d4_fires_on_date_formatting() {
    // Line 5 hits twice: the `chrono` path and `Local::now`.
    assert_eq!(
        lint_fixture("d4_datefmt.rs", false),
        vec![(5, "D4"), (5, "D4"), (11, "D4")]
    );
}

#[test]
fn s1_fires_on_unsafe_without_safety_comment() {
    // Line 6 is covered by the SAFETY comment above it; line 7 is not.
    assert_eq!(lint_fixture("s1_unsafe.rs", false), vec![(7, "S1")]);
}

#[test]
fn s2_fires_on_panics_in_event_path_code() {
    assert_eq!(
        lint_fixture("s2_panic.rs", false),
        vec![(7, "S2"), (8, "S2"), (9, "S2")]
    );
}

#[test]
fn s3_fires_on_crate_root_without_missing_docs_gate() {
    assert_eq!(lint_fixture("s3_missing_docs.rs", true), vec![(1, "S3")]);
    // The same file not classified as a crate root is clean.
    assert_eq!(lint_fixture("s3_missing_docs.rs", false), vec![]);
}

#[test]
fn s4_unused_suppression_golden() {
    // Line 7: the allow excuses nothing (BTreeMap is fine) — unused.
    // Line 9: allow names a rule that does not exist.
    // Line 10: allow(D2) matches the read on line 11 but gives no
    // reason — the violation is excused, the hygiene failure reported.
    assert_eq!(
        lint_fixture("s4_unused_suppression.rs", false),
        vec![(7, "S4"), (9, "S4"), (10, "S4")]
    );
}

const S6_DECL: &str = "crates/rio-order/src/s6_unreached_pub.rs";

/// Lints the S6 fixture pair as a two-crate workspace, the caller
/// fixture at `caller_rel`; returns `(path, line, rule)`.
fn lint_s6_pair(caller_rel: &str) -> Vec<(String, u32, &'static str)> {
    let read = |name| std::fs::read_to_string(fixture_path(name)).expect("read fixture");
    let files = [
        (classify(S6_DECL), read("s6_unreached_pub.rs")),
        (classify(caller_rel), read("s6_caller.rs")),
    ];
    let found = check_all(&files);
    found.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect()
}

#[test]
fn s6_fires_on_pub_items_no_code_reaches() {
    // Line 8: no reference at all (the caller's unused import is not
    // one). Line 11: only a unit test names it. Line 14: only its own
    // impl and a re-export name the type. `reached`, `build`, the
    // allowed const, the pub(crate) fn and the #[cfg(test)] fn stay
    // silent, and nothing in the calling crate is a declaration.
    let decl = |line| (S6_DECL.to_string(), line, "S6");
    assert_eq!(
        lint_s6_pair("crates/rio-stack/src/s6_caller.rs"),
        vec![decl(8), decl(11), decl(14)]
    );
    // An example or a bench is a caller like any other…
    assert_eq!(lint_s6_pair("examples/s6_caller.rs").len(), 3);
    assert_eq!(lint_s6_pair("crates/rio-bench/benches/s6.rs").len(), 3);
    // …an integration test is not: what only it calls is unreached.
    assert_eq!(
        lint_s6_pair("tests/s6_caller.rs"),
        vec![decl(5), decl(8), decl(11), decl(14), decl(18)]
    );
}

#[test]
fn s6_allow_that_excuses_nothing_is_reported_unused() {
    // With a caller for the const the allow on line 24 has nothing
    // left to excuse, and S4 says so.
    let src = std::fs::read_to_string(fixture_path("s6_unreached_pub.rs")).unwrap();
    let caller = "#![deny(missing_docs)]\nfn f() -> u32 { WAITING }\n".to_string();
    let files = [(classify(S6_DECL), src), (classify("src/lib.rs"), caller)];
    let got: Vec<_> = check_all(&files).iter().map(|f| (f.line, f.rule)).collect();
    assert!(got.contains(&(24, "S4")), "{got:?}");
}

#[test]
fn non_event_path_crate_is_exempt_from_d1_and_s2() {
    let src = std::fs::read_to_string(fixture_path("s2_panic.rs")).unwrap();
    let meta = FileMeta {
        rel: "crates/rio-bench/src/s2_panic.rs".to_string(),
        krate: "rio-bench".to_string(),
        is_crate_root: false,
        in_test_dir: false,
    };
    assert!(check(&src, &meta).is_empty());
}

#[test]
fn test_dir_files_are_exempt_from_d1_d3_s2() {
    let src = std::fs::read_to_string(fixture_path("d1_hashmap.rs")).unwrap();
    let mut meta = classify("crates/rio-order/tests/d1_hashmap.rs");
    assert!(meta.in_test_dir);
    // The suppression in the fixture now excuses nothing — drop that
    // line so the exemption itself is what's under test.
    let src: String = src
        .lines()
        .filter(|l| !l.contains("allow(D1)"))
        .collect::<Vec<_>>()
        .join("\n");
    meta.krate = "rio-order".to_string();
    assert!(check(&src, &meta).is_empty());
}

#[test]
fn classify_knows_crate_roots_and_test_dirs() {
    assert!(classify("src/lib.rs").is_crate_root);
    assert!(classify("crates/rio-sim/src/lib.rs").is_crate_root);
    assert!(classify("crates/rio-lint/src/main.rs").is_crate_root);
    assert!(classify("crates/rio-bench/src/bin/bench_gate.rs").is_crate_root);
    assert!(!classify("crates/rio-sim/src/heap.rs").is_crate_root);
    assert!(classify("crates/rio-order/tests/pipeline.rs").in_test_dir);
    assert!(classify("crates/rio-bench/benches/micro.rs").in_test_dir);
    assert_eq!(classify("crates/rio-ssd/src/media.rs").krate, "rio-ssd");
    assert_eq!(classify("tests/full_stack.rs").krate, "rio");
}

// ---------------------------------------------------------------------
// Binary end-to-end: a synthetic workspace with one dirty and one
// clean crate, linted through the real walker + CLI.
// ---------------------------------------------------------------------

const CLEAN_LIB: &str = "//! A synthetic crate root for the golden test.\n\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n\n/// Does nothing, deterministically.\npub fn noop() {}\n\n/// Does nothing, twice.\npub(crate) fn twice() {\n    noop();\n    noop();\n}\n";

fn scratch_workspace(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rio-lint-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("crates/rio-order/src")).unwrap();
    std::fs::write(dir.join("crates/rio-order/src/lib.rs"), CLEAN_LIB).unwrap();
    dir
}

#[test]
fn binary_names_file_line_rule_and_exits_nonzero() {
    let dir = scratch_workspace("dirty");
    std::fs::copy(
        fixture_path("d1_hashmap.rs"),
        dir.join("crates/rio-order/src/hazards.rs"),
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rio-lint"))
        .arg(&dir)
        .output()
        .expect("run rio-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "dirty workspace must fail the lint");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout.contains("crates/rio-order/src/hazards.rs:3: D1:"),
        "findings must name file:line:rule, got:\n{stdout}"
    );
    assert!(stdout.contains("crates/rio-order/src/hazards.rs:12: D1:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let dir = scratch_workspace("clean");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rio-lint"))
        .arg(&dir)
        .output()
        .expect("run rio-lint");
    assert!(
        out.status.success(),
        "clean workspace must pass, got:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Self-lint: the workspace this crate ships in must be clean. This is
// the static half of the determinism invariant — the dynamic half is
// the replay-snapshot suite in tests/full_stack.rs.
// ---------------------------------------------------------------------

#[test]
fn workspace_is_lint_clean() {
    let root = rio_lint::workspace_root();
    let (files, findings) = rio_lint::lint_workspace(&root).expect("walk workspace");
    assert!(
        files > 80,
        "walked suspiciously few files ({files}) — did the walker break?"
    );
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
