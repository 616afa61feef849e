//! The run laws: every identity a finished run satisfies, stated once.
//!
//! RIO's contract is that each stream's groups are delivered exactly
//! once and survive recovery as a valid prefix (§4.4, §4.8). A finished
//! [`RunMetrics`] reports what was delivered in several views — the run
//! totals, the epochs, the initiator and tenant rows, the telemetry
//! series, the stage trace, the integrity ledger and the recovery plans
//! — and each law says how two views must agree. In the terms of
//! Denning & Buzen ("The Operational Analysis of Queueing Network
//! Models", *Computing Surveys* 1978) each row is a flow balance or a
//! partition. Every test and figure that ends a run calls
//! [`check_laws`]; a site keeps only what the run cannot know, such as
//! its scripted totals, fairness and exact values.

use std::collections::BTreeSet;

use crate::metrics::{EpochMetrics, InitiatorMetrics, RunMetrics, TenantMetrics};
use crate::trace::{CmdTraceRecord, Stage};

/// One law: its name, the reference it states, and its check.
pub struct Law {
    /// What a broken law is reported as.
    pub name: &'static str,
    /// The paper section or ROADMAP item the law comes from.
    pub source: &'static str,
    /// `Err` says how the run breaks the law.
    pub check: fn(&RunMetrics) -> Result<(), String>,
}

/// Every law, in report order.
pub const LAWS: &[Law] = &[
    Law {
        name: "integrity ledger",
        source: "ROADMAP 20: every corruption detected, every detection resolved",
        check: |m| {
            if m.integrity.balanced() {
                Ok(())
            } else {
                Err(format!("{:?}", m.integrity))
            }
        },
    },
    Law {
        name: "epochs partition the run",
        source: "§4.8: a recovery ends one epoch",
        check: |m| {
            let sum = |f: fn(&EpochMetrics) -> u64| m.epochs.iter().map(f).sum::<u64>();
            balance(&[
                ("groups", sum(|e| e.groups_done), m.groups_done),
                ("blocks", sum(|e| e.blocks_done), m.blocks_done),
                ("ops", sum(|e| e.ops_done), m.ops_done),
            ])
        },
    },
    Law {
        name: "epochs run forward",
        source: "ROADMAP 8: a fault inside a recovery waits for it",
        check: |m| {
            if let Some(e) = m.epochs.iter().find(|e| e.from > e.to) {
                return Err(format!("an epoch runs backward: {e:?}"));
            }
            // Each recovery resumes at or after its fault, and the next
            // fault comes at or after that resume.
            let r = m.recoveries.iter();
            let instants: Vec<_> = r.flat_map(|r| [r.crashed_at, r.resumed_at]).collect();
            if instants.is_sorted() {
                Ok(())
            } else {
                Err(format!("recoveries overlap or run backward: {instants:?}"))
            }
        },
    },
    Law {
        name: "initiator rows sum to the run",
        source: "ROADMAP 20: initiator rows partition the run",
        check: |m| {
            let sum = |f: fn(&InitiatorMetrics) -> u64| m.initiators.iter().map(f).sum::<u64>();
            balance(&[
                ("groups", sum(|i| i.groups_done), m.groups_done),
                ("blocks", sum(|i| i.blocks_done), m.blocks_done),
                ("commands", sum(|i| i.commands_sent), m.commands_sent),
                ("gate_buffered", sum(|i| i.gate_buffered), m.gate_buffered),
            ])
        },
    },
    Law {
        name: "tenant rows sum to the run",
        source: "ROADMAP 20: a tenant is the sum of its initiators",
        check: |m| {
            let sum = |f: fn(&TenantMetrics) -> u64| m.tenants.iter().map(f).sum::<u64>();
            balance(&[
                ("groups", sum(|t| t.groups_done), m.groups_done),
                ("blocks", sum(|t| t.blocks_done), m.blocks_done),
            ])
        },
    },
    Law {
        name: "telemetry conserves deliveries",
        source: "ROADMAP 20: the series sums to the totals",
        check: |m| {
            m.telemetry.as_ref().map_or(Ok(()), |t| {
                balance(&[
                    ("groups", t.total_delivered_groups(), m.groups_done),
                    ("blocks", t.total_delivered_blocks(), m.blocks_done),
                ])
            })
        },
    },
    Law {
        name: "one trace per command",
        source: "ROADMAP 20: every command opens one trace and closes it",
        check: |m| {
            m.breakdown.as_ref().map_or(Ok(()), |b| {
                let closed = b.completed + b.aborted;
                let kept = b.records.len() as u64 + b.records_dropped;
                balance(&[
                    ("completed + aborted", closed, m.commands_sent),
                    ("ring + dropped", kept, closed),
                ])
            })
        },
    },
    Law {
        name: "retransmits annotated once",
        source: "ROADMAP 20: trace annotations partition the NICs' counters",
        check: |m| {
            let Some(b) = &m.breakdown else { return Ok(()) };
            balance(&[("retx_pkts", b.retx_pkts, m.net.retransmits)])?;
            // The wire counts a round at drop time; a crash can clear
            // the resend before the trace annotates it.
            let (traced, wire) = (b.retx_rounds, m.net.retx_rounds);
            if traced > wire || (m.recoveries.is_empty() && traced != wire) {
                return Err(format!("retx_rounds: {traced} against {wire} on the wire"));
            }
            Ok(())
        },
    },
    Law {
        name: "trace records are whole",
        source: "trace::Stage: a command passes its stages in order",
        check: |m| {
            let flaw = |r: &CmdTraceRecord| match r.aborted_by {
                _ if !r.stages.iter().flatten().is_sorted() => Some("stamps run backward"),
                None if !r.chain_complete() => Some("a completed chain misses a stage"),
                None if r.stage(Stage::PmrPersist).is_some() != r.ordered => {
                    Some("a PMR stamp iff ordered fails")
                }
                Some(_) if r.stage(Stage::Delivered).is_some() => Some("aborted but delivered"),
                _ => None,
            };
            let mut records = m.breakdown.iter().flat_map(|b| &b.records);
            match records.find_map(|r| Some((flaw(r)?, r))) {
                Some((why, r)) => Err(format!("{why}: {r:?}")),
                None => Ok(()),
            }
        },
    },
    Law {
        name: "one live trace per ordered fragment",
        source: "§4.4: each group is delivered once per epoch",
        check: |m| {
            let mut seen = BTreeSet::new();
            let records = m.breakdown.iter().flat_map(|b| &b.records);
            let live = records.filter(|r| r.ordered && r.aborted_by.is_none());
            let key = |r: &CmdTraceRecord| {
                let at = (r.server, r.ssd, r.lba, r.is_flush);
                (r.epoch, r.stream, r.seq_start, r.seq_end, at)
            };
            match live.map(key).find(|k| !seen.insert(*k)) {
                Some(k) => Err(format!("two traces of {k:?}")),
                None => Ok(()),
            }
        },
    },
    Law {
        name: "recovery keeps the resume head",
        source: "§4.8: the valid prefix never falls below the delivered head",
        check: |m| {
            let mut streams = m.recoveries.iter().flat_map(|r| &r.plan.streams);
            match streams.find(|s| s.valid_through < s.resume_head) {
                Some(s) => Err(format!("{:?} is valid below its head: {s:?}", s.stream)),
                None => Ok(()),
            }
        },
    },
];

/// `Ok` when every `(what, got, want)` agrees; else names the first
/// that does not.
fn balance(rows: &[(&str, u64, u64)]) -> Result<(), String> {
    match rows.iter().find(|(_, got, want)| got != want) {
        Some((what, got, want)) => Err(format!("{what}: {got} against {want}")),
        None => Ok(()),
    }
}

/// Evaluates every row of [`LAWS`] on `m`. The error names each broken
/// law, its source and how it broke, one line per law.
pub fn check_laws(m: &RunMetrics) -> Result<(), String> {
    let broken: Vec<String> = LAWS
        .iter()
        .filter_map(|law| {
            let why = (law.check)(m).err()?;
            Some(format!("law `{}` ({}) broken: {why}", law.name, law.source))
        })
        .collect();
    if broken.is_empty() {
        Ok(())
    } else {
        Err(broken.join("\n"))
    }
}

#[cfg(test)]
impl RunMetrics {
    /// Holds the run to every law, panicking with the broken ones.
    pub(crate) fn lawful(self) -> Self {
        if let Err(broken) = check_laws(&self) {
            panic!("{broken}");
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, FabricConfig, FaultPlan, OrderingMode};
    use crate::{Cluster, TelemetryConfig, TraceConfig, Workload};
    use rio_order::attr::Seq;
    use rio_sim::SimTime;

    /// Two initiators (a tenant each) over two targets on a lossy
    /// fabric, traced, sampled and integrity-checked, with target 1
    /// power-failing mid-run: every view a law reads is populated.
    fn sample() -> RunMetrics {
        let mut cfg = ClusterConfig::multi_initiator(OrderingMode::Rio { merge: true }, 2, 1, 2);
        cfg.net = FabricConfig::lossy(1e-2, 2);
        cfg.faults = FaultPlan::survivable_crash(SimTime::from_nanos(300_000), vec![1]);
        cfg.integrity = true;
        cfg.trace = Some(TraceConfig::default());
        cfg.telemetry = Some(TelemetryConfig::default());
        Cluster::new(cfg, Workload::random_4k(2, 300)).run()
    }

    /// The first two live ordered records, by index.
    fn two_live(m: &RunMetrics) -> (usize, usize) {
        let records = &m.breakdown.as_ref().unwrap().records;
        let mut live =
            (0..records.len()).filter(|&i| records[i].ordered && records[i].aborted_by.is_none());
        (live.next().unwrap(), live.next().unwrap())
    }

    #[test]
    fn each_law_catches_its_violation_by_name() {
        let m = sample();
        let b = m.breakdown.as_ref().unwrap();
        assert!(
            m.recoveries.len() == 1 && m.net.retransmits > 0 && b.aborted > 0,
            "{m:?}"
        );
        assert_eq!(check_laws(&m), Ok(()));
        // One doctored field per row, in `LAWS` order.
        let doctors: [fn(&mut RunMetrics); 11] = [
            |m| m.integrity.torn_injected += 1,
            |m| m.epochs[0].ops_done += 1,
            |m| m.recoveries[0].resumed_at = SimTime::ZERO,
            |m| m.initiators[1].commands_sent += 1,
            |m| m.tenants[0].blocks_done += 1,
            |m| m.telemetry.as_mut().unwrap().buckets[0].delivered_blocks += 1,
            |m| m.breakdown.as_mut().unwrap().records_dropped += 1,
            |m| m.breakdown.as_mut().unwrap().retx_pkts += 1,
            |m| {
                m.breakdown.as_mut().unwrap().records[0].stages[0] =
                    Some(SimTime::from_nanos(u64::MAX))
            },
            |m| {
                let (i, j) = two_live(m);
                let records = &mut m.breakdown.as_mut().unwrap().records;
                records[j] = records[i].clone();
            },
            |m| m.recoveries[0].plan.streams[0].resume_head = Seq(u32::MAX),
        ];
        assert_eq!(doctors.len(), LAWS.len(), "one doctored field per law");
        for (law, doctor) in LAWS.iter().zip(doctors) {
            let mut bad = m.clone();
            doctor(&mut bad);
            let err = check_laws(&bad).expect_err(law.name);
            let named: Vec<&str> = LAWS
                .iter()
                .map(|l| l.name)
                .filter(|n| err.contains(&format!("`{n}`")))
                .collect();
            assert_eq!(named, [law.name], "{err}");
        }
    }
}
