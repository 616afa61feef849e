//! Table 1: the Rio NVMe-oF command format atop the 1.4 specification.
//!
//! Prints the field placement and verifies it bit-exactly against the
//! encoder, plus the §6.1 PMR constants (2 MB region, 0.6 µs per-record
//! persist).

use rio_bench::{header, row};
use rio_proto::{RioExt, RioFlags, RioOpcode, Sqe};
use rio_ssd::SsdProfile;
use rio_stack::cpu::PMR_APPEND_NS;

fn main() {
    println!("Reproduction of paper Table 1 (Rio NVMe-oF command format).");
    header("Table 1: dword:bits -> Rio field (verified against encoder)");

    let ext = RioExt {
        op: RioOpcode::Submit,
        seq_start: 0x1111_1111,
        seq_end: 0x2222_2222,
        prev: 0x3333_3333,
        num: 0x4444,
        stream: 0x5555,
        flags: RioFlags {
            boundary: true,
            split: false,
            ipu: false,
        },
        member_idx: 7,
        split_idx: 0,
        last_split: false,
        dispatch_idx: 0x6666_6666,
    };
    let mut sqe = Sqe::write(1, 0x1000, 8);
    ext.embed(&mut sqe);

    // (dword:bits, field, dword, shift, mask, what the encoder put there)
    let fields: [(&str, &str, usize, u32, u32, u32); 9] = [
        (
            "00:10-13",
            "Rio op code (submit)",
            0,
            10,
            0xf,
            RioOpcode::Submit.as_bits() as u32,
        ),
        ("02:00-31", "start sequence (seq)", 2, 0, !0, 0x1111_1111),
        ("03:00-31", "end sequence (seq)", 3, 0, !0, 0x2222_2222),
        ("04:00-31", "previous group (prev)", 4, 0, !0, 0x3333_3333),
        ("05:00-15", "number of requests (num)", 5, 0, 0xffff, 0x4444),
        ("05:16-31", "stream ID", 5, 16, !0, 0x5555),
        ("12:16-19", "special flags (boundary)", 12, 16, 0xf, 0b001),
        ("13:00-16", "member/split (impl. extension)", 13, 0, 0xff, 7),
        (
            "14:00-31",
            "dispatch ordinal (impl. extension)",
            14,
            0,
            !0,
            0x6666_6666,
        ),
    ];
    let mut all_ok = true;
    for (pos, field, dw, shift, mask, want) in fields {
        let ok = (sqe.dw[dw] >> shift) & mask == want;
        row(pos, &[field, if ok { "ok" } else { "MISMATCH" }]);
        all_ok &= ok;
    }
    // Standard fields must survive the embedding.
    assert_eq!(sqe.slba(), 0x1000, "SLBA clobbered");
    assert_eq!(sqe.nlb(), 8, "NLB clobbered");
    assert!(all_ok, "Table 1 layout mismatch");

    header("§6.1 PMR constants");
    for p in [
        SsdProfile::pm981(),
        SsdProfile::optane905p(),
        SsdProfile::p4800x(),
    ] {
        row(
            p.name,
            &[
                format!("PMR {} MB", p.pmr_bytes / (1024 * 1024)),
                format!("persist {:.1} us / 32 B", PMR_APPEND_NS as f64 / 1e3),
            ],
        );
    }
    println!("\nTable 1 layout verified bit-exactly.");
}
