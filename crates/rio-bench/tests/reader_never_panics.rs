//! The one JSON reader and the `BENCH.json` loader built on it
//! must answer every input — truncated, bit-flipped, spliced or
//! absurdly nested — with `Ok` or `Err`, never a panic or a stack
//! overflow. Seeded, fixed iteration count: a sub-second `cargo test`.

use rio_bench::gate::Document;
use rio_bench::json::read;
use rio_bench::trace_export::{chrome_trace, validate_json};
use rio_sim::SimRng;
use rio_ssd::SsdProfile;
use rio_stack::{Cluster, ClusterConfig, OrderingMode, TelemetryConfig, TraceConfig, Workload};

/// Every entry point that takes JSON text from outside the program.
fn feed(text: &str) {
    let _ = read(text);
    let _ = Document::parse(text);
    let _ = validate_json(text);
}

fn small_chrome_trace() -> String {
    let mode = OrderingMode::Rio { merge: true };
    let mut cfg = ClusterConfig::single_ssd(mode, SsdProfile::optane905p(), 2);
    cfg.trace = Some(TraceConfig { ring: 8 });
    cfg.telemetry = Some(TelemetryConfig::default());
    chrome_trace(&Cluster::new(cfg, Workload::random_4k(2, 40)).run())
}

#[test]
fn mutated_documents_never_panic() {
    let trace = small_chrome_trace();
    validate_json(&trace).expect("the unmutated trace is valid");
    let corpus = [include_str!("../../../BENCH.json"), trace.as_str()];
    let mut rng = SimRng::seed_from_u64(0x5EED_150A);
    for doc in corpus {
        feed(doc);
        for _ in 0..128 {
            let mut bytes = doc.as_bytes().to_vec();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64) as usize;
                match rng.below(4) {
                    0 => bytes[at] ^= 1 << rng.below(8),
                    1 => drop(bytes.remove(at)),
                    2 => {
                        let end = (at + 1 + rng.below(24) as usize).min(bytes.len());
                        let dup = bytes[at..end].to_vec();
                        bytes.splice(at..at, dup);
                    }
                    _ => bytes.truncate(at + 1),
                }
            }
            // The loaders take `&str`: whoever read the file already
            // replaced invalid UTF-8.
            feed(&String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn absurd_nesting_is_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"a\": "] {
        let deep = open.repeat(10_000);
        let err = read(&deep).expect_err("nesting beyond the bound");
        assert!(err.contains("nesting too deep"), "{err}");
        feed(&deep);
    }
    // Right at home below the bound.
    let ok = format!("{}1{}", "[".repeat(32), "]".repeat(32));
    read(&ok).expect("32 levels are fine");
}
