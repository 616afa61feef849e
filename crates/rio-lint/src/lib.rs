//! `rio-lint`: workspace-wide determinism & safety static analysis.
//!
//! Determinism is this repository's standing invariant — every feature
//! ships with byte-identical replay snapshots — but snapshots only
//! catch a nondeterminism bug *after* it reaches the event path. This
//! crate enforces the invariant statically, before a run ever
//! executes, with a hand-rolled comment/string/raw-string-aware lexer
//! (the workspace is offline-vendored, so no external parser) and a
//! small rule engine. Thirteen rules are rows of one table
//! ([`GUARDS`]) that a single evaluator runs; S1, S3, S4 and S6 are not
//! token bans and stay as code:
//!
//! | Rule | What it enforces |
//! |------|------------------|
//! | D1 | no raw `HashMap`/`HashSet` in non-test code of the event-path crates (`rio-{sim,order,net,ssd,stack,fs}`) but `rio-sim/src/hash.rs` |
//! | D2 | no `Instant::now`/`SystemTime::now`, test code included (`benchmark/src/host.rs` measures host time under a recorded allow) |
//! | D3 | no `rand`, `thread_rng` or `from_entropy` in non-test code: `rio_sim::SimRng` is the only generator |
//! | D4 | no wall-clock dates (`chrono`, `Local::now`, `Utc::now`, `strftime`, `asctime`, `OffsetDateTime`) in non-test code |
//! | S1 | every `unsafe` block carries a `// SAFETY:` comment |
//! | S2 | no `panic!`/`todo!`/`unimplemented!` in non-test code of the event-path crates |
//! | S3 | every crate root carries `#![deny(missing_docs)]` |
//! | S4 | inline suppressions must name a real rule, give a reason, and be used |
//! | S6 | every `pub` item in `crates/*/src` is named by some non-test code besides its declaration |
//! | G1 | at most 1 000 non-test lines in any `crates/rio-stack/src` file |
//! | G2 | per-crate budgets of non-test panic sites (`.unwrap()`, `.expect(`, `assert*!(`, …) |
//! | G3 | no `.round()` in non-test code of `rio-{sim,net,ssd,order,stack}` |
//! | G4 | no `pin_stream_to_qp:` (a full `ClusterConfig` literal) outside `config.rs` |
//! | G5 | no identifier containing `fabric_bw` or `one_way` in `cluster/recovery.rs` |
//! | G6 | no identifier containing `OnceLock`, `thread_local` or `lazy` in `rio-proto` |
//! | G7 | no manifest names the word `rand` |
//! | G8 | no `CoreSet`, `qps_per_target`, `stripe_blocks`, `TargetConfig`, `with_cores` |
//!
//! Test code is a file under a `tests/` tree, a `tests.rs` module, or a
//! `#[cfg(test)]` / `#[test]` item, for every rule; benches and
//! examples are product code. A hit of a D or S rule may be excused
//! with a line comment starting `rio-lint: allow(<rule>) <reason>`
//! placed on the offending line or the line above; the rule id alone
//! decides, so nothing lifts a G row. S4 reports any allow that stops
//! matching, so suppressions cannot rot, and any allow of a G row. Run
//! `cargo run -p rio-lint` to lint the workspace and its manifests
//! (exit 0 = clean); CI runs it on every push, and the self-lint test
//! runs it under `cargo test`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{check, check_all, FileMeta, Finding, GUARDS, RULES};

use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS state, and
/// the intentionally-violating rule fixtures under
/// `crates/rio-lint/tests/fixtures/`.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Returns the workspace root, resolved relative to this crate's
/// manifest so the binary works from any working directory.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/rio-lint sits two levels below the workspace root")
        .to_path_buf()
}

/// Classifies a workspace-relative `/`-separated path for the rules.
pub fn classify(rel: &str) -> FileMeta {
    let parts: Vec<&str> = rel.split('/').collect();
    let is_crate_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (parts.len() == 4
            && parts[0] == "crates"
            && parts[2] == "src"
            && (parts[3] == "lib.rs" || parts[3] == "main.rs"))
        || (parts.len() == 5 && parts[0] == "crates" && parts[2] == "src" && parts[3] == "bin")
        || (parts.len() == 3 && parts[0] == "src" && parts[1] == "bin");
    FileMeta {
        rel: rel.to_string(),
        is_crate_root,
    }
}

/// Collects every `Cargo.toml` and every `.rs` file outside the
/// vendored third-party shims under `vendor/`.
fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name == "Cargo.toml"
            || (name.ends_with(".rs") && !path.starts_with(root.join("vendor")))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every Rust source file and manifest under `root` (skipping
/// build output, vendored sources, VCS state and the lint's own
/// fixtures).
///
/// Returns `(files scanned, findings)`; findings are sorted by path,
/// line, then rule, so output (and CI logs) are stable.
pub fn lint_workspace(root: &Path) -> std::io::Result<(usize, Vec<Finding>)> {
    let mut paths = Vec::new();
    collect(root, root, &mut paths)?;
    let mut files = Vec::new();
    for path in &paths {
        let rel: String = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push((classify(&rel), std::fs::read_to_string(path)?));
    }
    let mut findings = check_all(&files);
    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((files.len(), findings))
}
