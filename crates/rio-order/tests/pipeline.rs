//! End-to-end pipeline property test: sequencer → ORDER queue → volume
//! split → dispatch stamping → (network permutation) → gate →
//! completion, all from the pure `rio-order` building blocks.
//!
//! Invariants checked under random workloads and random network
//! reordering (bounded per-QP as RC transports guarantee):
//!
//! * the gate releases requests in per-server dispatch order;
//! * the completer delivers every group exactly once, in sequence
//!   order, regardless of internal completion order;
//! * merged units subsume whole groups (never a partial group).

use proptest::prelude::*;
use rio_order::attr::{BlockRange, Seq, ServerId, StreamId};
use rio_order::scheduler::{split_attr_into, OrderQueue, OrderQueueConfig};
use rio_order::sequencer::{Sequencer, SubmitOpts};
use rio_order::{InOrderCompleter, SubmissionGate};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pipeline_delivers_every_group_in_order(
        group_sizes in proptest::collection::vec(1usize..4, 1..25),
        merge in any::<bool>(),
        shuffle_seed in any::<u64>(),
    ) {
        let n_servers = 2usize;
        let mut seq = Sequencer::new(1, n_servers);
        let mut queue = OrderQueue::new(
            StreamId(0),
            OrderQueueConfig { merge, max_merge_blocks: 32 },
        );
        // Submit: group i's members write consecutive LBAs.
        let mut lba = 0u64;
        for size in &group_sizes {
            for m in 0..*size {
                let attr = seq.submit(
                    StreamId(0),
                    BlockRange::new(lba, 1),
                    SubmitOpts { end_group: m == size - 1, ..Default::default() },
                );
                lba += 1;
                queue.push(attr, lba);
            }
        }
        // Dispatch: stripe every unit over the two servers by LBA
        // parity slices (forces splits), stamp per fragment.
        let units = queue.flush();
        let mut fragments = Vec::new();
        let mut unit_frags = Vec::new();
        for unit in units {
            // Merged units cover whole groups only.
            if unit.parts.len() > 1 {
                let total_members: usize = unit
                    .parts
                    .iter()
                    .filter(|p| p.attr.boundary)
                    .map(|p| p.attr.num as usize)
                    .sum();
                prop_assert_eq!(
                    total_members,
                    unit.parts.len(),
                    "merged unit covers partial groups"
                );
            }
            let attr = unit.attr;
            // Split in two halves when >1 block (mimics striping).
            let mut frags = Vec::new();
            if attr.range.blocks > 1 {
                let half = attr.range.blocks / 2;
                split_attr_into(
                    &attr,
                    [
                        BlockRange::new(attr.range.lba, half),
                        BlockRange::new(attr.range.lba + half as u64, attr.range.blocks - half),
                    ]
                    .into_iter(),
                    &mut frags,
                )
            } else {
                split_attr_into(&attr, std::iter::once(attr.range), &mut frags)
            };
            let unit_id = unit_frags.len();
            unit_frags.push(frags.len());
            for (fi, mut f) in frags.into_iter().enumerate() {
                let server = ServerId(((f.range.lba as usize + fi) % n_servers) as u16);
                seq.stamp_dispatch(&mut f, server);
                fragments.push((unit_id, f));
            }
        }
        // Network: bounded reorder — shuffle, but the gate re-sorts per
        // server; feed arrivals in shuffled order.
        let mut rng = rio_sim::SimRng::seed_from_u64(shuffle_seed);
        let mut order: Vec<usize> = (0..fragments.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.between(0, i as u64) as usize;
            order.swap(i, j);
        }
        // One gate per server; track per-server release order.
        let mut gates: Vec<SubmissionGate> = (0..n_servers).map(|_| SubmissionGate::new()).collect();
        let mut released: Vec<Vec<u64>> = vec![Vec::new(); n_servers];
        let mut frag_done: Vec<usize> = vec![0; unit_frags.len()];
        let mut completer = InOrderCompleter::new(1);
        let mut delivered: Vec<Seq> = Vec::new();
        for &i in &order {
            let (_unit_id, attr) = fragments[i];
            let srv = attr.server.0 as usize;
            let mut now_releasable = Vec::new();
            gates[srv].arrive_into(attr, i as u64, &mut now_releasable);
            for (r_attr, _) in now_releasable {
                released[srv].push(r_attr.dispatch_idx);
                // "Submit to SSD" and complete immediately: count
                // fragment completions per unit; the last fragment's
                // own attribute reports the unit (merges included).
                let uid = fragments
                    .iter()
                    .position(|(u, a)| {
                        *u == unit_id_of(&fragments, r_attr) && a.dispatch_idx == r_attr.dispatch_idx && a.server == r_attr.server
                    })
                    .map(|k| fragments[k].0)
                    .expect("fragment exists");
                frag_done[uid] += 1;
                if frag_done[uid] == unit_frags[uid] {
                    delivered.extend(completer.on_done(&r_attr));
                }
            }
        }
        // Gate invariant: per-server releases in dispatch order.
        for r in &released {
            let mut sorted = r.clone();
            sorted.sort_unstable();
            prop_assert_eq!(r, &sorted, "gate released out of order");
        }
        // Completion invariant: groups 1..=N exactly once, in order.
        let expect: Vec<Seq> = (1..=group_sizes.len() as u32).map(Seq).collect();
        prop_assert_eq!(delivered, expect);
    }
}

/// Helper: unit id of a fragment (by identity fields).
fn unit_id_of(
    fragments: &[(usize, rio_order::attr::OrderingAttr)],
    attr: rio_order::attr::OrderingAttr,
) -> usize {
    fragments
        .iter()
        .find(|(_, a)| a.dispatch_idx == attr.dispatch_idx && a.server == attr.server)
        .map(|(u, _)| *u)
        .expect("fragment registered")
}
