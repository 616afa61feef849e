//! A time-ordered event heap with stable FIFO tie-breaking.
//!
//! Determinism requires that two events scheduled for the same instant
//! pop in the order they were pushed, so every entry carries a
//! monotonically increasing sequence number as a tiebreaker.
//!
//! # Hot-path layout
//!
//! The heap is the single busiest structure in the simulator, so it is
//! split into two arrays:
//!
//! * the *heap* itself holds only fixed-size keys — `(time, seq)`
//!   packed into one `u128` plus a `u32` slot index — so every sift
//!   compares a single integer and moves 32 bytes (the `u128` is
//!   16-aligned, so the slot pads the node to two of them),
//!   independent of the event payload type;
//! * the *slab* stores the payloads at stable slot indices with a free
//!   list, so pushing and popping never moves an `E` more than once and
//!   steady-state operation performs no allocation at all.
//!
//! Because `seq` is unique, the packed key is unique too and the
//! comparison never falls back to the payload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// One heap node: the packed `(time, seq)` ordering key and the slab
/// slot holding the payload.
#[derive(Clone, Copy)]
struct Node {
    /// `(time << 64) | seq`: a single integer compare orders by time,
    /// then FIFO among ties.
    key: u128,
    slot: u32,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.key.cmp(&self.key)
    }
}

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// A deterministic min-heap of timed events.
///
/// # Examples
///
/// ```
/// use rio_sim::{EventHeap, SimTime};
///
/// let mut heap = EventHeap::new();
/// heap.push(SimTime::from_nanos(20), "late");
/// heap.push(SimTime::from_nanos(10), "early");
/// assert_eq!(heap.pop(), Some((SimTime::from_nanos(10), "early")));
/// assert_eq!(heap.pop(), Some((SimTime::from_nanos(20), "late")));
/// assert_eq!(heap.pop(), None);
/// ```
pub struct EventHeap<E> {
    heap: BinaryHeap<Node>,
    /// Slab of payloads; `None` marks a free slot.
    slots: Vec<Option<E>>,
    /// Free slot indices available for reuse.
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty heap pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Schedules `event` at instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slots[s as usize].is_none());
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(event));
                s
            }
        };
        self.heap.push(Node {
            key: pack(at, seq),
            slot,
        });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let node = self.heap.pop()?;
        Some((unpack_time(node.key), self.take_slot(node.slot)))
    }

    /// Returns the earliest pending event without removing it.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let node = self.heap.peek()?;
        let event = self.slots[node.slot as usize]
            .as_ref()
            .expect("heap node points at live slot");
        Some((unpack_time(node.key), event))
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }

    fn take_slot(&mut self, slot: u32) -> E {
        let event = self.slots[slot as usize]
            .take()
            .expect("heap node points at live slot");
        self.free.push(slot);
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn a_heap_node_is_two_u128s() {
        // What every sift moves: the 16-aligned key pads the slot.
        assert_eq!(std::mem::size_of::<Node>(), 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            h.push(SimTime::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, v)) = h.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut h = EventHeap::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            h.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(h.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_nanos(9), 'a');
        h.push(SimTime::from_nanos(3), 'b');
        assert_eq!(h.peek(), Some((SimTime::from_nanos(3), &'b')));
        let (t, e) = h.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_nanos(3), 'b'));
        assert_eq!(h.peek(), Some((SimTime::from_nanos(9), &'a')));
    }

    #[test]
    fn len_and_clear() {
        let mut h = EventHeap::new();
        assert!(h.is_empty());
        h.push(SimTime::ZERO, ());
        h.push(SimTime::ZERO, ());
        assert_eq!(h.len(), 2);
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn slots_are_reused_without_growth() {
        let mut h = EventHeap::with_capacity(4);
        for round in 0..1000u64 {
            h.push(SimTime::from_nanos(round), round);
            h.push(SimTime::from_nanos(round), round + 1);
            assert_eq!(h.pop().unwrap().1, round);
            assert_eq!(h.pop().unwrap().1, round + 1);
        }
        // Steady-state push/pop cycles at depth 2 never need more than
        // two payload slots.
        assert!(h.slots.len() <= 2, "slab grew to {}", h.slots.len());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut h = EventHeap::with_capacity(64);
        h.push(SimTime::from_nanos(2), 'x');
        h.push(SimTime::from_nanos(1), 'y');
        assert_eq!(h.pop(), Some((SimTime::from_nanos(1), 'y')));
        assert_eq!(h.pop(), Some((SimTime::from_nanos(2), 'x')));
    }

    proptest! {
        /// Popping always yields a non-decreasing time sequence, and ties
        /// preserve push order.
        #[test]
        fn prop_stable_time_order(times in proptest::collection::vec(0u64..50, 0..200)) {
            let mut h = EventHeap::new();
            for (i, &t) in times.iter().enumerate() {
                h.push(SimTime::from_nanos(t), (t, i));
            }
            let mut prev: Option<(u64, usize)> = None;
            while let Some((at, (t, i))) = h.pop() {
                prop_assert_eq!(at.as_nanos(), t);
                if let Some((pt, pi)) = prev {
                    prop_assert!(pt <= t);
                    if pt == t {
                        prop_assert!(pi < i, "FIFO violated among ties");
                    }
                }
                prev = Some((t, i));
            }
        }

        /// Interleaved pushes and pops match a reference model.
        #[test]
        fn prop_matches_reference_model(
            ops in proptest::collection::vec((0u64..40, 0u8..2), 1..300),
        ) {
            let mut h = EventHeap::new();
            let mut model: Vec<(u64, u64, u64)> = Vec::new(); // (t, seq, val)
            let mut seq = 0u64;
            for &(t, is_pop) in &ops {
                if is_pop == 1 {
                    model.sort();
                    let want = if model.is_empty() { None } else { Some(model.remove(0)) };
                    let got = h.pop();
                    match (want, got) {
                        (None, None) => {}
                        (Some((wt, _, wv)), Some((gt, gv))) => {
                            prop_assert_eq!(wt, gt.as_nanos());
                            prop_assert_eq!(wv, gv);
                        }
                        (w, g) => prop_assert!(false, "model {w:?} vs heap {g:?}"),
                    }
                } else {
                    h.push(SimTime::from_nanos(t), seq);
                    model.push((t, seq, seq));
                    seq += 1;
                }
            }
        }
    }
}
