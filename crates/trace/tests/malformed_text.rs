//! No-panic pass over malformed trace files. Text traces from
//! `io::to_text` are truncated, mutated a byte at a time, joined across
//! lines and given extra fields; every result must come back from the
//! parser as `Ok` or `Err`, never as a panic. Every trace that still
//! parses then goes through the analyses a trace file feeds
//! (`LocalityReport`, `BlockProfile`), which must return just the same.

use lpmem_trace::{io, AccessKind, BlockProfile, LocalityReport, MemEvent, Trace, TraceError};
use lpmem_util::{Props, Rng};

/// Two accesses 2^44 bytes apart: 2^33 blocks of 2 KiB between them.
const SPARSE_SPAN: &str = "R 0 4 0\nR 100000000000 4 0\n";

/// Parses `bytes` as a trace file (decoded lossily, so every byte string
/// reaches the parser) and analyses whatever parses. Only a panic can
/// fail this.
fn read_and_analyse(bytes: &[u8]) {
    if let Ok(trace) = io::from_text(&String::from_utf8_lossy(bytes)) {
        let _ = LocalityReport::from_trace(&trace, 64);
        for block in [1, 64, 2048] {
            let _ = BlockProfile::from_trace(&trace, block);
        }
    }
}

fn random_trace(rng: &mut Rng) -> Trace {
    let len = rng.gen_range(1..24usize);
    let base = if rng.gen_bool(0.5) {
        rng.gen_range(0..0x10_0000u64)
    } else {
        rng.next_u64()
    };
    (0..len)
        .map(|_| MemEvent {
            addr: base.wrapping_add(rng.gen_range(0..0x4000u64)),
            kind: *rng
                .choose(&[AccessKind::InstrFetch, AccessKind::Read, AccessKind::Write])
                .expect("non-empty"),
            size: *rng.choose(&[1u8, 2, 4]).expect("non-empty"),
            value: rng.next_u32(),
        })
        .collect()
}

/// A byte a corrupt file is likely to hold: trace syntax, digits, hex
/// letters, signs, control and non-ASCII bytes, or anything at all.
fn noise_byte(rng: &mut Rng) -> u8 {
    const SYNTAX: &[u8] = b"FRWfrw0123456789abcdefxX #\n\t-+_.\r\xff\xc3\x00";
    if rng.gen_bool(0.75) {
        *rng.choose(SYNTAX).expect("non-empty")
    } else {
        rng.gen_range(0..=255u8)
    }
}

/// An extra whitespace-separated field: a number, a huge hex run, a kind
/// letter or a stray word.
fn extra_field(rng: &mut Rng) -> String {
    match rng.gen_range(0..4u8) {
        0 => rng.next_u64().to_string(),
        1 => "f".repeat(rng.gen_range(1..40usize)),
        2 => "W".to_owned(),
        _ => "0x10".to_owned(),
    }
}

fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    match rng.gen_range(0..4u8) {
        // Truncate, possibly mid-line or mid-number.
        0 => bytes.truncate(rng.gen_range(0..=bytes.len())),
        // Overwrite one byte.
        1 => {
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = noise_byte(rng);
            }
        }
        // Join a line onto the next.
        2 => {
            let newlines: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
            if let Some(&at) = rng.choose(&newlines) {
                bytes.remove(at);
            }
        }
        // Append an extra field to a line.
        _ => {
            let ends: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'\n').collect();
            let at = rng.choose(&ends).copied().unwrap_or(bytes.len());
            let field = format!(" {}", extra_field(rng));
            bytes.splice(at..at, field.into_bytes());
        }
    }
}

#[test]
fn mutated_trace_files_return_errors_never_panics() {
    Props::new("mutated trace files never panic")
        .cases(256)
        .run(|rng| {
            let mut bytes = io::to_text(&random_trace(rng)).into_bytes();
            for _ in 0..rng.gen_range(1..5u32) {
                mutate(rng, &mut bytes);
            }
            read_and_analyse(&bytes);
        });
}

#[test]
fn fixed_malformed_inputs_return_errors_never_panics() {
    let long_hex = format!("R {} 4 0", "f".repeat(40));
    let fixed: [&[u8]; 14] = [
        SPARSE_SPAN.as_bytes(),
        b"R 0 4 0\nR ffffffffffffffff 4 0\n",
        b"",
        b"#\n\n",
        b"R 10 300 0",
        b"R -1 4 0",
        b"R +10 4 +0",
        b"R 0x10 4 0",
        b"R 10 4 100000000",
        b"R 10 4 0 R 14 4 0",
        b"R\t10\t4\t0\r\n",
        b"\xff\xfe R 10 4 0",
        "R \u{663} 4 0".as_bytes(),
        long_hex.as_bytes(),
    ];
    for bytes in fixed {
        read_and_analyse(bytes);
    }
}

#[test]
fn a_sparse_trace_is_an_error_for_the_profile_not_an_allocation() {
    let trace = io::from_text(SPARSE_SPAN).expect("the sparse trace is well formed");
    assert_eq!(trace.len(), 2);
    assert!(LocalityReport::from_trace(&trace, 64).is_ok());
    assert!(matches!(
        BlockProfile::from_trace(&trace, 2048),
        Err(TraceError::InvalidParameter(_))
    ));
}
