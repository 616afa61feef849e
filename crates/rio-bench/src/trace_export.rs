//! Chrome `trace_event` JSON export: renders a run's `StageTrace`
//! closed-record ring as duration spans and its telemetry series as
//! counter tracks, loadable in Perfetto or `chrome://tracing`.
//!
//! The format is the Trace Event Format's JSON-object flavor:
//! `{"traceEvents": [...]}` where each event carries `ph` (phase),
//! `ts`/`dur` in microseconds, and `pid`/`tid` lanes. Spans (`"X"`)
//! come from consecutive reached stages of each traced command —
//! one span per [`LatencyBreakdown::SEGMENT_LABELS`] segment — laid
//! out with the initiator as the process and the stream as the
//! thread. Counters (`"C"`) come from the telemetry buckets. Stall
//! windows and crash/recovery spans render on a dedicated watchdog
//! process so they are visible as a band across the timeline. When
//! the trace ring evicted records, a metadata event (`"M"`) reports
//! the eviction count so a truncated view is never mistaken for the
//! whole run.
//!
//! The renderer is a streaming `core::fmt` writer (the workspace
//! vendors no JSON dependency); [`validate_json`] checks its output
//! with the crate's one JSON reader ([`crate::json::read`]), which CI
//! and the example run on every exported trace.

use std::fmt::Write as _;

use rio_stack::trace::STAGES;
use rio_stack::{
    ClusterConfig, LatencyBreakdown, RunMetrics, Telemetry, TelemetryConfig, TraceConfig, Workload,
};

use crate::json::read;
use crate::run;

/// The `pid` lane used for watchdog annotations (stall windows and
/// recovery spans), far away from real initiator indices.
const WATCHDOG_PID: u32 = 999;

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn push_event(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Renders `m` as a Chrome `trace_event` JSON document.
pub fn chrome_trace(m: &RunMetrics) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n");
    let mut first = true;
    if let Some(b) = &m.breakdown {
        render_spans(&mut out, &mut first, b);
    }
    if let Some(t) = &m.telemetry {
        render_counters(&mut out, &mut first, t);
        render_watchdog(&mut out, &mut first, t);
    }
    out.push_str("\n]\n}\n");
    out
}

fn render_spans(out: &mut String, first: &mut bool, b: &LatencyBreakdown) {
    for r in &b.records {
        let mut prev: Option<u64> = r.stages[0].map(|t| t.as_nanos());
        for i in 1..STAGES {
            let Some(t) = r.stages[i] else { continue };
            let t = t.as_nanos();
            if let Some(p) = prev {
                push_event(out, first);
                let _ = write!(
                    out,
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": {}, \"tid\": {}, \"args\": {{\"seq_start\": {}, \"seq_end\": {}, \
                     \"server\": {}, \"ssd\": {}, \"lba\": {}, \"epoch\": {}, \
                     \"retx_pkts\": {}, \"gate_depth\": {}}}}}",
                    LatencyBreakdown::SEGMENT_LABELS[i - 1],
                    us(p),
                    us(t.saturating_sub(p)),
                    r.initiator,
                    r.stream,
                    r.seq_start,
                    r.seq_end,
                    r.server,
                    r.ssd,
                    r.lba,
                    r.epoch,
                    r.retx_pkts,
                    r.gate_depth,
                );
            }
            prev = Some(t);
        }
        if let Some(fault) = r.aborted_by {
            // Mark where the crash killed the command.
            let at = prev.unwrap_or(0);
            push_event(out, first);
            let _ = write!(
                out,
                "{{\"name\": \"aborted\", \"ph\": \"i\", \"ts\": {:.3}, \"s\": \"t\", \
                 \"pid\": {}, \"tid\": {}, \"args\": {{\"fault\": {}}}}}",
                us(at),
                r.initiator,
                r.stream,
                fault,
            );
        }
    }
    if b.records_dropped > 0 {
        // The ring evicted closed records: the spans above are the
        // *most recent* window of the run, not all of it.
        push_event(out, first);
        let _ = write!(
            out,
            "{{\"name\": \"stage_trace_ring\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"records_dropped\": {}, \"records_kept\": {}}}}}",
            b.records_dropped,
            b.records.len(),
        );
    }
}

fn render_counters(out: &mut String, first: &mut bool, t: &Telemetry) {
    // One `"key0": v, "key1": v, …` member list, one member per target
    // or NIC.
    let list = |key: &str, values: &[u32]| {
        let members: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(j, v)| format!("\"{key}{j}\": {v}"))
            .collect();
        members.join(", ")
    };
    for (i, b) in t.buckets.iter().enumerate() {
        let ts = us(t.bucket_start(i).as_nanos());
        let counters = [
            (
                "delivered KIOPS",
                format!("\"kiops\": {:.3}", t.delivered_kiops(i)),
            ),
            ("inflight cmds", format!("\"cmds\": {}", b.inflight_peak)),
            ("pending groups", format!("\"groups\": {}", b.pending_end)),
            ("gate occupancy", format!("\"fragments\": {}", b.gate_peak)),
            (
                "completer pending",
                format!("\"groups\": {}", b.completer_peak),
            ),
            ("ssd queue", list("t", &b.ssd_queue_peak)),
            ("retx pkts", list("nic", &b.retx_pkts)),
            ("corrupt pkts", list("nic", &b.corrupt_pkts)),
        ];
        for (name, args) in counters {
            push_event(out, first);
            let _ = write!(
                out,
                "{{\"name\": \"{name}\", \"ph\": \"C\", \"ts\": {ts:.3}, \"pid\": 0, \
                 \"args\": {{{args}}}}}"
            );
        }
    }
    if t.clamped > 0 {
        push_event(out, first);
        let _ = write!(
            out,
            "{{\"name\": \"telemetry_buckets\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
             \"args\": {{\"clamped_samples\": {}}}}}",
            t.clamped,
        );
    }
}

fn render_watchdog(out: &mut String, first: &mut bool, t: &Telemetry) {
    push_event(out, first);
    let _ = write!(
        out,
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {WATCHDOG_PID}, \"tid\": 0, \
         \"args\": {{\"name\": \"watchdog\"}}}}",
    );
    for s in &t.recovery_spans {
        push_event(out, first);
        let _ = write!(
            out,
            "{{\"name\": \"recovery\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": {WATCHDOG_PID}, \"tid\": 0, \"args\": {{\"fault\": {}}}}}",
            us(s.from.as_nanos()),
            us(s.to.since(s.from).as_nanos()),
            s.fault,
        );
    }
    for w in &t.stalls {
        push_event(out, first);
        let _ = write!(
            out,
            "{{\"name\": \"stall\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": {WATCHDOG_PID}, \"tid\": 1, \"args\": {{\"pending\": {}",
            us(w.from.as_nanos()),
            us(w.to.since(w.from).as_nanos()),
            w.pending,
        );
        if let Some(f) = w.recovery {
            let _ = write!(out, ", \"recovery_of_fault\": {f}");
        }
        out.push_str("}}");
    }
}

/// Runs a bench's one traced cell if `--trace-out <path>` is among
/// the process arguments: `cfg` on `wl` with the stage trace and
/// telemetry on, written to `path` as a Chrome trace (parent
/// directories created). `what` names the cell in the confirmation
/// line. Returns whether it ran, so a bench prints its sweep only
/// without the flag.
///
/// # Panics
///
/// Panics if the run breaks a run law or the trace cannot be written.
pub fn traced_cell(what: &str, mut cfg: ClusterConfig, wl: Workload) -> bool {
    let args: Vec<String> = std::env::args().collect();
    let Some(path) = trace_out_arg(&args) else {
        return false;
    };
    cfg.trace = Some(TraceConfig::default());
    cfg.telemetry = Some(TelemetryConfig::default());
    let write = |m: &RunMetrics| {
        if let Some(dir) = std::path::Path::new(&path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, chrome_trace(m))
    };
    write(&run(what, cfg, wl)).expect("write Chrome trace");
    println!("wrote Chrome trace of {what} to {path}");
    true
}

/// Checks that `s` is one valid JSON document (the reader's grammar:
/// no `NaN`, no trailing garbage). Self-contained so CI can validate
/// the exported trace without `jq`/`python`.
pub fn validate_json(s: &str) -> Result<(), String> {
    read(s).map(drop)
}

/// Parses `--trace-out <path>` from a bench's argument list.
fn trace_out_arg(args: &[String]) -> Option<String> {
    args.windows(2)
        .find(|w| w[0] == "--trace-out")
        .map(|w| w[1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use rio_sim::SimTime;

    /// Counts duration spans (`"ph": "X"`) named `name` in a Chrome
    /// trace document; 0 if it does not parse.
    fn count_spans(json: &str, name: &str) -> usize {
        let is =
            |e: &Value, key, want: &str| matches!(e.get(key), Some(Value::Str(s)) if s == want);
        match read(json)
            .ok()
            .as_ref()
            .and_then(|doc| doc.get("traceEvents"))
        {
            Some(Value::Array(events)) => events
                .iter()
                .filter(|e| is(e, "name", name) && is(e, "ph", "X"))
                .count(),
            _ => 0,
        }
    }

    use rio_ssd::SsdProfile;
    use rio_stack::{
        Cluster, ClusterConfig, FabricConfig, FaultPlan, OrderingMode, TelemetryConfig,
        TraceConfig, Workload,
    };

    fn traced_run(ring: usize) -> RunMetrics {
        let mut cfg = ClusterConfig::single_ssd(
            OrderingMode::Rio { merge: true },
            SsdProfile::optane905p(),
            2,
        );
        cfg.trace = Some(TraceConfig { ring });
        cfg.telemetry = Some(TelemetryConfig::default());
        Cluster::new(cfg, Workload::random_4k(2, 120)).run()
    }

    #[test]
    fn export_is_valid_json_with_spans_for_every_traced_stage() {
        let m = traced_run(4096);
        let json = chrome_trace(&m);
        validate_json(&json).expect("well-formed");
        // A Rio run reaches every stage, so every segment label must
        // have at least one span.
        for label in LatencyBreakdown::SEGMENT_LABELS {
            assert!(
                count_spans(&json, label) >= 1,
                "no span for stage segment {label}"
            );
        }
        // Counters rendered from the telemetry series.
        assert!(json.contains("\"delivered KIOPS\""));
        assert!(json.contains("\"ssd queue\""));
        // Nothing evicted: no truncation metadata.
        assert!(!json.contains("stage_trace_ring"));
    }

    #[test]
    fn ring_eviction_is_reported_as_metadata() {
        let m = traced_run(4);
        assert!(m.breakdown.as_ref().unwrap().records_dropped > 0);
        let json = chrome_trace(&m);
        validate_json(&json).expect("well-formed");
        assert!(json.contains("\"stage_trace_ring\""));
        assert!(json.contains("records_dropped"));
    }

    #[test]
    fn crash_run_renders_recovery_and_stall_bands() {
        let mut cfg = ClusterConfig::single_ssd(
            OrderingMode::Rio { merge: true },
            SsdProfile::optane905p(),
            2,
        );
        cfg.net = FabricConfig::lossy(1e-3, 2);
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(400_000), vec![0]);
        cfg.telemetry = Some(TelemetryConfig::default());
        let m = Cluster::new(cfg, Workload::random_4k(2, 400)).run();
        let json = chrome_trace(&m);
        validate_json(&json).expect("well-formed");
        assert_eq!(count_spans(&json, "recovery"), 1);
        assert!(count_spans(&json, "stall") >= 1);
        assert!(json.contains("\"recovery_of_fault\": 0"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_json("{\"a\": [1, 2}").is_err());
        assert!(validate_json("{\"a\": \"unterminated").is_err());
        assert!(validate_json("   ").is_err());
        assert!(validate_json("{\"a\": [1, 2]}").is_ok());
        // Balanced brackets are not enough: these all satisfied the
        // old bracket balancer.
        for bad in [
            "{\"a\" 1 2,,}",
            "{\"ts\": NaN}",
            "[1 2]",
            "{\"a\": 1} x",
            "[1,]",
            "[01]",
        ] {
            let err = validate_json(bad).expect_err(bad);
            assert!(err.contains("at byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn spans_are_counted_structurally() {
        // Member order inside an event is irrelevant, and a span's name
        // appearing inside another string is not a span.
        let doc = r#"{"traceEvents": [
            {"ph": "X", "ts": 1.0, "name": "media", "dur": 2.0},
            {"name": "media", "ph": "X", "ts": 3.0, "dur": 1.0},
            {"name": "media", "ph": "C", "ts": 3.0},
            {"name": "note", "ph": "i", "args": {"text": "\"name\": \"media\", \"ph\": \"X\""}}
        ]}"#;
        validate_json(doc).expect("well-formed");
        assert_eq!(count_spans(doc, "media"), 2);
        assert_eq!(count_spans(doc, "gate"), 0);
        assert_eq!(count_spans("not json", "media"), 0);
    }

    #[test]
    fn trace_out_flag_parses() {
        let args: Vec<String> = ["bench", "--smoke", "--trace-out", "/tmp/t.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(trace_out_arg(&args).as_deref(), Some("/tmp/t.json"));
        assert_eq!(trace_out_arg(&args[..2]), None);
    }
}
