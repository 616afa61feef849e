//! Helpers shared by this crate's integration tests.

use std::collections::BTreeMap;

use rio_order::recovery::RecoveryInput;

/// `input` without the records at or below their stream's largest
/// delivered-through mark on any server: the records recovery drops as
/// already delivered. A stream no superblock marks keeps all of its.
pub fn without_stale(input: &RecoveryInput) -> RecoveryInput {
    let mut heads = BTreeMap::new();
    for &(stream, seq) in input.scans.iter().flat_map(|s| &s.head_seqs) {
        let head = heads.entry(stream.0).or_insert(seq.0);
        *head = (*head).max(seq.0);
    }
    let mut live = input.clone();
    for scan in &mut live.scans {
        scan.records
            .retain(|r| heads.get(&r.stream).is_none_or(|&h| r.seq_end > h));
    }
    live
}
