//! Plain-text trace serialization.
//!
//! One event per line: `<kind> <hex addr> <size> <hex value>`, where kind
//! is `F` (fetch), `R` (read), or `W` (write). Lines starting with `#` and
//! blank lines are ignored. The format is deliberately trivial so traces
//! interchange with awk/python tooling and other simulators.
//!
//! ```
//! use lpmem_trace::{MemEvent, Trace};
//!
//! let trace: Trace = vec![MemEvent::read(0x2000).with_value(7)].into();
//! let text = lpmem_trace::io::to_text(&trace);
//! assert_eq!(lpmem_trace::io::from_text(&text)?, trace);
//! # Ok::<(), lpmem_trace::TraceError>(())
//! ```

use crate::{AccessKind, MemEvent, Trace, TraceError};

fn kind_char(kind: AccessKind) -> char {
    match kind {
        AccessKind::InstrFetch => 'F',
        AccessKind::Read => 'R',
        AccessKind::Write => 'W',
    }
}

/// Renders a trace to its text form.
pub fn to_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 24);
    for ev in trace {
        out.push_str(&format!(
            "{} {:x} {} {:x}\n",
            kind_char(ev.kind),
            ev.addr,
            ev.size,
            ev.value
        ));
    }
    out
}

/// Parses the text form back into a trace.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] on any malformed line.
pub fn from_text(text: &str) -> Result<Trace, TraceError> {
    let mut trace = Trace::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        trace.push(parse_line(line)?);
    }
    Ok(trace)
}

fn parse_line(line: &str) -> Result<MemEvent, TraceError> {
    let bad = || TraceError::InvalidParameter("malformed trace line");
    let mut parts = line.split_whitespace();
    let kind = match parts.next().ok_or_else(bad)? {
        "F" | "f" => AccessKind::InstrFetch,
        "R" | "r" => AccessKind::Read,
        "W" | "w" => AccessKind::Write,
        _ => return Err(bad()),
    };
    let addr = u64::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
    let size: u8 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let value = u32::from_str_radix(parts.next().ok_or_else(bad)?, 16).map_err(|_| bad())?;
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(MemEvent {
        addr,
        kind,
        size,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_util::Props;

    fn sample() -> Trace {
        vec![
            MemEvent::fetch(0x100).with_value(0xdead_beef),
            MemEvent::read(0x2000).with_value(42),
            MemEvent {
                addr: 0x2004,
                kind: AccessKind::Write,
                size: 1,
                value: 0xAB,
            },
        ]
        .into()
    }

    #[test]
    fn text_roundtrip() {
        let t = sample();
        assert_eq!(from_text(&to_text(&t)).unwrap(), t);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# header\n\nR 100 4 0\n  # indented comment\nW 104 4 7\n";
        let t = from_text(text).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "X 100 4 0",
            "R zz 4 0",
            "R 100",
            "R 100 4 0 extra",
            "R 100 four 0",
        ] {
            assert!(from_text(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn arbitrary_traces_roundtrip() {
        Props::new("arbitrary traces roundtrip through text").run(|rng| {
            let len = rng.gen_range(0..64usize);
            let t: Trace = (0..len)
                .map(|_| MemEvent {
                    addr: rng.next_u64(),
                    kind: match rng.gen_range(0..3u8) {
                        0 => AccessKind::InstrFetch,
                        1 => AccessKind::Read,
                        _ => AccessKind::Write,
                    },
                    size: *rng.choose(&[1u8, 2, 4]).expect("non-empty"),
                    value: rng.next_u32(),
                })
                .collect();
            assert_eq!(from_text(&to_text(&t)).unwrap(), t);
        });
    }
}
