//! Command-line entry point: `cargo run -p rio-lint [root]`.
//!
//! Lints every Rust source file and manifest in the workspace (or under
//! the given root), printing one `file:line: RULE: message` per finding.
//! Exits 0 when clean, 1 on findings, 2 on I/O errors — the same
//! contract the CI `Lint` step relies on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(rio_lint::workspace_root);
    match rio_lint::lint_workspace(&root) {
        Ok((files, findings)) => {
            for f in &findings {
                println!("{}", f.render());
            }
            if findings.is_empty() {
                println!("rio-lint: {files} files clean");
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "rio-lint: {} finding(s) across {} scanned files",
                    findings.len(),
                    files
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rio-lint: error scanning {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
