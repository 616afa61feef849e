//! Golden tests: every rule and guard row fires on its fixture at the
//! expected lines, suppression hygiene is enforced, the binary reports
//! `file:line:rule` and exits nonzero, and the real workspace is
//! lint-clean.

use rio_lint::{check, check_all, classify, FileMeta, GUARDS};
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
// Guard rows: each reproduces what its CI grep caught, at the path the
// grep watched, and stays silent on comments, strings and out-of-scope
// paths.
// ---------------------------------------------------------------------

/// Lints `src` as the file at `rel` through the full engine and keeps
/// the guard findings as `(line, rule)`.
fn guards_on(src: &str, rel: &str) -> Vec<(u32, &'static str)> {
    let found = check_all(&[(classify(rel), src.to_string())]);
    found
        .iter()
        .filter(|f| f.rule.starts_with('G'))
        .map(|f| (f.line, f.rule))
        .collect()
}

fn guard_fixture(name: &str, rel: &str) -> Vec<(u32, &'static str)> {
    guards_on(
        &std::fs::read_to_string(fixture_path(name)).expect("read fixture"),
        rel,
    )
}

#[test]
fn g1_bounds_rio_stack_files_at_1000_non_test_lines() {
    let body = "pub fn f() {}\n".repeat(999);
    let tests = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
    let at_bound = format!("//! One thousand lines.\n{body}{tests}");
    assert_eq!(guards_on(&at_bound, "crates/rio-stack/src/big.rs"), vec![]);
    let over = format!("//! One thousand and one lines.\npub fn g() {{}}\n{body}");
    assert_eq!(
        guards_on(&over, "crates/rio-stack/src/big.rs"),
        vec![(1, "G1")]
    );
    // Test-only modules and other crates are not bounded.
    assert_eq!(
        guards_on(&over, "crates/rio-stack/src/cluster/tests.rs"),
        vec![]
    );
    assert_eq!(guards_on(&over, "crates/rio-ssd/src/big.rs"), vec![]);
}

/// A `rio-stack` file with `n` non-test `.expect(` sites, plus sites in
/// a comment, a string, a `#[cfg(test)]` fn and a test module, which
/// do not count.
fn expects(n: usize) -> String {
    let sites = "    let _ = x.expect(\"held\");\n".repeat(n);
    format!(
        "//! Panic sites.\n// x.expect( in a comment\npub fn f(x: Option<u8>) {{\n{sites}    \
         let _ = \"x.unwrap()\";\n}}\n#[cfg(test)]\nfn g() {{ None::<u8>.unwrap(); }}\n\
         #[cfg(test)]\nmod tests {{\n    fn t() {{ assert!(Some(1).expect(\"x\") == 1); }}\n}}\n"
    )
}

#[test]
fn g2_reports_every_panic_site_of_a_crate_over_budget() {
    assert_eq!(
        guards_on(&expects(23), "crates/rio-stack/src/sites.rs"),
        vec![]
    );
    let over = guards_on(&expects(24), "crates/rio-stack/src/sites.rs");
    assert_eq!(over, (4..28).map(|l| (l, "G2")).collect::<Vec<_>>());
    // The budget is the crate's: 23 in each of two files is 46.
    let src = expects(23);
    let files = [
        (classify("crates/rio-stack/src/a.rs"), src.clone()),
        (classify("crates/rio-stack/src/b.rs"), src),
    ];
    let found = check_all(&files);
    assert_eq!(found.iter().filter(|f| f.rule == "G2").count(), 46);
    assert!(
        found[0]
            .msg
            .contains("46 under `crates/rio-stack/src/`, 23 allowed"),
        "{found:?}"
    );
    // Every counted form, and `tests.rs` counting none of them.
    let forms = "pub fn f(x: Option<u8>) {\n    x.unwrap();\n    unreachable!();\n    panic!();\n    \
                 assert!(true);\n    assert_eq!(1, 1);\n    assert_ne!(1, 2);\n    debug_assert!(true);\n    \
                 debug_assert_eq!(1, 1);\n    debug_assert_ne!(1, 2);\n}\n";
    assert_eq!(
        guards_on(forms, "crates/rio-net/src/f.rs"),
        (2..11).map(|l| (l, "G2")).collect::<Vec<_>>()
    );
    assert_eq!(guards_on(forms, "crates/rio-net/src/tests.rs"), vec![]);
}

#[test]
fn g3_fires_on_round_in_event_path_non_test_code() {
    assert_eq!(
        guard_fixture("g3_round.rs", "crates/rio-sim/src/time.rs"),
        vec![(5, "G3")]
    );
    assert_eq!(
        guard_fixture("g3_round.rs", "crates/rio-bench/src/round.rs"),
        vec![]
    );
}

#[test]
fn g4_fires_on_a_full_cluster_config_literal_outside_config_rs() {
    assert_eq!(
        guard_fixture("g4_config_literal.rs", "tests/literal.rs"),
        vec![(18, "G4")]
    );
    assert_eq!(
        guard_fixture("g4_config_literal.rs", "examples/literal.rs"),
        vec![(18, "G4")]
    );
    assert_eq!(
        guard_fixture("g4_config_literal.rs", "crates/rio-stack/src/config.rs"),
        vec![]
    );
    assert_eq!(
        guard_fixture("g4_config_literal.rs", "benchmark/src/literal.rs"),
        vec![]
    );
}

#[test]
fn g5_fires_on_wire_time_in_recovery_inside_longer_names() {
    // Line 8 hits twice: `one_way_latency_us` and `fabric_bw`.
    assert_eq!(
        guard_fixture(
            "g5_recovery_wire.rs",
            "crates/rio-stack/src/cluster/recovery.rs"
        ),
        vec![(7, "G5"), (8, "G5"), (8, "G5")]
    );
    assert_eq!(
        guard_fixture(
            "g5_recovery_wire.rs",
            "crates/rio-stack/src/cluster/wire.rs"
        ),
        vec![]
    );
}

#[test]
fn g6_fires_on_tables_built_on_first_use_in_rio_proto() {
    assert_eq!(
        guard_fixture("g6_lazy_table.rs", "crates/rio-proto/src/crc.rs"),
        vec![(3, "G6"), (5, "G6"), (5, "G6"), (7, "G6"), (12, "G6")]
    );
    assert_eq!(
        guard_fixture("g6_lazy_table.rs", "crates/rio-ssd/src/crc.rs"),
        vec![]
    );
}

#[test]
fn g7_fires_on_rand_in_any_manifest_dev_dependencies_included() {
    for rel in [
        "Cargo.toml",
        "crates/rio-sim/Cargo.toml",
        "vendor/shim/Cargo.toml",
        "benchmark/Cargo.toml",
    ] {
        assert_eq!(
            guard_fixture("g7_rand_dev_dep.toml", rel),
            vec![(9, "G7")],
            "{rel}"
        );
    }
    // A Rust file naming `rand` is D3's business, not G7's.
    assert_eq!(
        guard_fixture("g7_rand_dev_dep.toml", "crates/rio-sim/src/rand.rs"),
        vec![]
    );
}

#[test]
fn g8_fires_on_a_second_core_pool_anywhere_but_benchmark() {
    let want = vec![
        (4, "G8"),
        (10, "G8"),
        (12, "G8"),
        (14, "G8"),
        (21, "G8"),
        (21, "G8"),
        (23, "G8"),
    ];
    assert_eq!(
        guard_fixture("g8_core_set.rs", "crates/rio-stack/src/cores.rs"),
        want
    );
    assert_eq!(guard_fixture("g8_core_set.rs", "tests/cores.rs"), want);
    assert_eq!(
        guard_fixture("g8_core_set.rs", "benchmark/src/cores.rs"),
        vec![]
    );
}

#[test]
fn s4_reports_an_allow_of_a_guard_row_which_lifts_nothing() {
    let ban = "//! Banned.\n// rio-lint: allow(G8) one more pool just this once\nstruct CoreSet;\n";
    let found = check_all(&[(classify("crates/rio-stack/src/pool.rs"), ban.to_string())]);
    let got: Vec<_> = found.iter().map(|f| (f.line, f.rule)).collect();
    assert_eq!(got, vec![(2, "S4"), (3, "G8")], "{found:?}");
    // Nor does an allow raise a budget.
    let src = expects(24).replacen(
        "    let _ = x",
        "    // rio-lint: allow(G2) the 24th\n    let _ = x",
        1,
    );
    let found = check_all(&[(classify("crates/rio-stack/src/sites.rs"), src)]);
    assert_eq!(found.iter().filter(|f| f.rule == "G2").count(), 24);
    assert_eq!(
        found.iter().filter(|f| f.rule == "S4").count(),
        1,
        "{found:?}"
    );
}

#[test]
fn every_guard_scope_names_a_real_path() {
    // A renamed file or crate would leave its row guarding nothing.
    let root = rio_lint::workspace_root();
    for g in GUARDS {
        for path in g
            .within
            .iter()
            .map(|(p, _)| *p)
            .chain(g.except.iter().copied())
        {
            assert!(
                root.join(path).exists(),
                "{}: `{path}` does not exist",
                g.rule
            );
        }
    }
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
fn binary_reads_manifests_vendor_included_but_not_vendored_sources() {
    let dir = scratch_workspace("vendor");
    std::fs::create_dir_all(dir.join("vendor/shim/src")).unwrap();
    std::fs::copy(
        fixture_path("g7_rand_dev_dep.toml"),
        dir.join("vendor/shim/Cargo.toml"),
    )
    .unwrap();
    std::fs::write(
        dir.join("vendor/shim/src/lib.rs"),
        "fn f() { std::time::Instant::now(); }\n",
    )
    .unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rio-lint"))
        .arg(&dir)
        .output()
        .expect("run rio-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("vendor/shim/Cargo.toml:9: G7: `rand = \"0.8\"`"),
        "{stdout}"
    );
    assert!(!stdout.contains("vendor/shim/src"), "{stdout}");
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
