//! The wire and log decoders must answer every byte image — bit
//! flipped, splatted, or torn and zero-padded — with a value or `None`,
//! never a panic: the PMR log is read back after a power failure and
//! capsule bytes cross a fabric that corrupts them. And whatever a
//! decoder does accept is a value its encoder can spell again, without
//! panicking and to the bytes it came from. Seeded, fixed iteration
//! count: a sub-second `cargo test`.

use rio_proto::pmr_record::RecordFlags;
use rio_proto::{crc16, Cqe, PmrRecord, RioExt, RioFlags, RioOpcode, Sqe};
use rio_sim::SimRng;

const MUTATIONS: usize = 10_000;

/// One to three seeded mutations of `bytes`, in place.
fn mutate(rng: &mut SimRng, bytes: &mut [u8]) {
    for _ in 0..=rng.below(3) {
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(3) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => {
                let end = (at + 1 + rng.below(8) as usize).min(bytes.len());
                bytes[at..end].fill(rng.below(256) as u8);
            }
            // A torn write: the tail never landed and reads as zeroes.
            _ => bytes[at..].fill(0),
        }
    }
}

#[test]
fn mutated_pmr_records_decode_or_are_refused() {
    let record = PmrRecord {
        generation: 3,
        flags: RecordFlags {
            boundary: true,
            flush: true,
            ..RecordFlags::default()
        },
        member_idx: 2,
        num: 3,
        stream: 7,
        seq_start: 41,
        seq_end: 44,
        prev: 40,
        lba: PmrRecord::MAX_LBA - 9,
        len: 8,
        split_idx: 0,
        persist: true,
        ssd: 1,
    };
    let image = record.encode();
    assert_eq!(PmrRecord::decode(&image), Some(record));
    let mut rng = SimRng::seed_from_u64(0x5EED_0A70);
    let mut refused = 0;
    for _ in 0..MUTATIONS {
        let mut bytes = image;
        mutate(&mut rng, &mut bytes);
        let Some(decoded) = PmrRecord::decode(&bytes) else {
            refused += 1;
            continue;
        };
        // `encode` writes the persist byte as 0 / 1 and no reserved flag
        // bit; from such an image it rebuilds every byte.
        let again = decoded.encode();
        assert_eq!(PmrRecord::decode(&again), Some(decoded));
        if bytes[2] < 0x20 {
            bytes[PmrRecord::PERSIST_OFFSET] = decoded.persist as u8;
            assert_eq!(again, bytes);
        }
    }
    // Magic and CRC-16 cover bytes 0..30; most mutations land there.
    assert!(refused > MUTATIONS / 2, "only {refused} refused");

    // What the loop above reaches once in 65 536 tries, built by hand: a
    // slot whose checksum holds over a body `encode` asserts against.
    let reseal = |mut bytes: [u8; PmrRecord::SIZE]| {
        let ck = crc16(&bytes[0..28]);
        bytes[28..30].copy_from_slice(&ck.to_le_bytes());
        bytes
    };
    assert_eq!(PmrRecord::decode(&reseal(image)), Some(record));
    let mut empty = image;
    empty[26] = 0;
    assert_eq!(PmrRecord::decode(&reseal(empty)), None, "len == 0");
    let mut inverted = image;
    inverted[12..16].copy_from_slice(&40u32.to_le_bytes());
    assert_eq!(PmrRecord::decode(&reseal(inverted)), None, "seq_end < seq_start");
}

#[test]
fn mutated_completions_decode_or_are_refused() {
    let cqe = Cqe {
        result: 0xDEAD_BEEF,
        sq_head: 17,
        sq_id: 3,
        phase: true,
        ..Cqe::aborted(99)
    };
    let image = cqe.encode();
    assert_eq!(Cqe::decode(&image), Some(cqe));
    let mut rng = SimRng::seed_from_u64(0x5EED_0C0E);
    for _ in 0..MUTATIONS {
        let mut bytes = image;
        mutate(&mut rng, &mut bytes);
        // Whatever is accepted is a value `encode` can spell again.
        if let Some(decoded) = Cqe::decode(&bytes) {
            assert_eq!(Cqe::decode(&decoded.encode()), Some(decoded));
        }
    }
}

#[test]
fn mutated_commands_decode_and_their_extension_is_accepted_or_refused() {
    let ext = RioExt {
        op: RioOpcode::Submit,
        seq_start: 41,
        seq_end: 44,
        prev: 40,
        num: 3,
        stream: 7,
        flags: RioFlags {
            boundary: true,
            ..RioFlags::default()
        },
        member_idx: 2,
        split_idx: 1,
        last_split: true,
        dispatch_idx: 1234,
    };
    let mut sqe = Sqe::write(9, 0x1234_5678_9ABC, 8);
    ext.embed(&mut sqe);
    let image = sqe.encode();
    assert_eq!(Sqe::decode(&image), sqe);
    assert_eq!(RioExt::extract(&Sqe::decode(&image)), Some(ext));
    let mut rng = SimRng::seed_from_u64(0x5EED_05E0);
    let mut refused = 0;
    for _ in 0..MUTATIONS {
        let mut bytes = image;
        mutate(&mut rng, &mut bytes);
        // Every 64-byte image is a command; the accessors and the
        // extension reader take whatever it holds.
        let decoded = Sqe::decode(&bytes);
        assert_eq!(decoded.encode(), bytes);
        let _ = (decoded.opcode(), decoded.cid(), decoded.slba());
        let _ = (decoded.nlb(), decoded.fua());
        let Some(ext) = RioExt::extract(&decoded) else {
            refused += 1;
            continue;
        };
        // `embed` rewrites the flags nibble (dword 12 bits 16:19, the
        // top one reserved) and dword 13 whole (member, fragment,
        // last-split bit, the rest reserved), and leaves every bit it
        // does not own.
        let mut again = decoded;
        ext.embed(&mut again);
        assert_eq!(RioExt::extract(&again), Some(ext));
        bytes[50] &= !0x08;
        bytes[54] &= 1;
        bytes[55] = 0;
        assert_eq!(again.encode(), bytes);
    }
    // A torn tail zeroes `seq_end` under a live `seq_start`: common.
    assert!(refused > MUTATIONS / 20, "only {refused} refused");
}
