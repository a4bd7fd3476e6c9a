//! The 1B.3 flow: application-specific instruction-bus encoding.

use lpmem_buscode::{BusChoice, BusInvert, RegionEncoder};
use lpmem_energy::{BusModel, Energy, Technology};
use lpmem_trace::{AccessKind, Trace};

use crate::FlowError;

/// Result of the bus-encoding study for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BusCodingOutcome {
    /// Workload label.
    pub name: String,
    /// Fetches in the stream.
    pub fetches: u64,
    /// Transitions of the raw instruction stream.
    pub raw_transitions: u64,
    /// Transitions after the trained per-region XOR encoding.
    pub encoded_transitions: u64,
    /// Transitions under the bus-invert baseline (including its extra
    /// line).
    pub businvert_transitions: u64,
    /// Number of reprogrammable regions used.
    pub regions: usize,
    /// Total XOR gates across the regional transforms.
    pub gates: usize,
    /// Bus energy of the raw stream.
    pub raw_energy: Energy,
    /// Bus energy of the encoded stream.
    pub encoded_energy: Energy,
}

impl BusCodingOutcome {
    /// Fractional transition reduction of the functional encoding (the
    /// paper reports "up to half of the original transitions").
    pub fn reduction(&self) -> f64 {
        if self.raw_transitions == 0 {
            0.0
        } else {
            1.0 - self.encoded_transitions as f64 / self.raw_transitions as f64
        }
    }

    /// Fractional transition reduction of the bus-invert baseline.
    pub fn businvert_reduction(&self) -> f64 {
        if self.raw_transitions == 0 {
            0.0
        } else {
            1.0 - self.businvert_transitions as f64 / self.raw_transitions as f64
        }
    }
}

/// A trace's instruction-bus stream, the `(addr, word)` pair of every
/// fetch in trace order, read in place and re-iterable.
fn fetches_of(trace: &Trace) -> impl Iterator<Item = (u64, u32)> + Clone + '_ {
    trace
        .iter()
        .filter(|e| e.kind == AccessKind::InstrFetch)
        .map(|e| (e.addr, e.value))
}

/// Switching energy of a coded bus's encoder and decoder: one extra XOR
/// layer on each end of the fetch path. A gate's output only switches when
/// a line it drives toggles, so the layer's energy is proportional to the
/// line transitions on its input (encoder) and output (decoder) sides — at
/// ~2 fF of gate load vs. ~0.5 pF of wire, a factor of ~0.004 of the line
/// energy per side.
pub fn codec_gate_energy(bus: &BusModel, raw_transitions: u64, encoded_transitions: u64) -> Energy {
    let gate_pj = 0.004 * bus.transition_energy().as_pj();
    Energy::from_pj(gate_pj * (raw_transitions + encoded_transitions) as f64)
}

/// Instruction-bus energy of one or more traces' fetch streams on one bus
/// choice (see [`price_bus`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusPrice {
    /// Fetches over all the streams.
    pub fetches: u64,
    /// Line energy of the unencoded streams.
    pub raw: Energy,
    /// Line energy of the encoded streams.
    pub encoded: Energy,
    /// Encoder + decoder gate switching ([`codec_gate_energy`]); zero on
    /// the raw bus, which has no codec.
    pub gates: Energy,
}

/// Integer bus counts of one or more fetch streams on one bus choice, the
/// input of a [`BusPrice`]. Counts of several private buses add before
/// they are priced, so a sum of per-stream counts prices exactly like the
/// streams priced together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusCounts {
    /// Fetches over all the streams.
    pub fetches: u64,
    /// Line transitions of the unencoded streams.
    pub raw: u64,
    /// Line transitions of the encoded streams.
    pub encoded: u64,
}

impl BusCounts {
    /// Counts a trace's fetch stream, read in place, on one private bus
    /// encoded as `bus` (an XOR bus trains on this stream).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::InvalidSpec`] for an XOR region count
    /// [`check_regions`] rejects and [`FlowError::EmptyInput`] for a trace
    /// without instruction fetches.
    pub fn of(trace: &Trace, bus: BusChoice) -> Result<BusCounts, FlowError> {
        if let BusChoice::Xor(regions) = bus {
            check_regions(regions)?;
        }
        let stream = fetches_of(trace);
        let fetches = stream.clone().count() as u64;
        if fetches == 0 {
            return Err(FlowError::EmptyInput("trace has no instruction fetches"));
        }
        let (raw, encoded) = bus.transitions(stream);
        Ok(BusCounts {
            fetches,
            raw,
            encoded,
        })
    }

    /// Prices the counted streams' 32-line on-chip buses, all encoded as
    /// `bus`.
    pub fn price(self, bus: BusChoice, tech: &Technology) -> BusPrice {
        let model = BusModel::onchip(tech, 32);
        BusPrice {
            fetches: self.fetches,
            raw: model.energy_of(self.raw),
            encoded: model.energy_of(self.encoded),
            gates: if bus == BusChoice::Raw {
                Energy::ZERO
            } else {
                codec_gate_energy(&model, self.raw, self.encoded)
            },
        }
    }
}

impl std::ops::AddAssign for BusCounts {
    fn add_assign(&mut self, other: BusCounts) {
        self.fetches += other.fetches;
        self.raw += other.raw;
        self.encoded += other.encoded;
    }
}

/// Prices the instruction buses that carry the fetch streams of `traces`,
/// one private 32-line on-chip bus per trace, all encoded as `bus` (an XOR
/// bus trains on its own stream). The [`BusCounts`] of the streams are
/// summed in order and priced once. The system flow and the CMP flow price
/// their buses here; the explorer sums memoized per-core counts the same
/// way.
///
/// # Errors
///
/// As [`BusCounts::of`], for the first trace it rejects.
pub fn price_bus<'a>(
    traces: impl IntoIterator<Item = &'a Trace>,
    bus: BusChoice,
    tech: &Technology,
) -> Result<BusPrice, FlowError> {
    let mut counts = BusCounts::default();
    for trace in traces {
        counts += BusCounts::of(trace, bus)?;
    }
    Ok(counts.price(bus, tech))
}

/// Checks a bus-encoder region count before any flow trains on it: from
/// one region to [`RegionEncoder::MAX_REGIONS`].
///
/// # Errors
///
/// Returns [`FlowError::InvalidSpec`] for any other count.
pub fn check_regions(regions: usize) -> Result<(), FlowError> {
    if (1..=RegionEncoder::MAX_REGIONS).contains(&regions) {
        Ok(())
    } else {
        Err(FlowError::InvalidSpec(format!(
            "bus-encoder regions must be 1 to {}, got {regions}",
            RegionEncoder::MAX_REGIONS
        )))
    }
}

/// Trains a [`RegionEncoder`] on a trace's fetch stream and evaluates it
/// against the raw bus and the bus-invert baseline.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSpec`] for a region count
/// [`check_regions`] rejects and [`FlowError::EmptyInput`] when the trace
/// has no instruction fetches.
pub fn run_buscoding(
    name: &str,
    trace: &Trace,
    num_regions: usize,
    tech: &Technology,
) -> Result<BusCodingOutcome, FlowError> {
    check_regions(num_regions)?;
    let stream: Vec<(u64, u32)> = fetches_of(trace).collect();
    if stream.is_empty() {
        return Err(FlowError::EmptyInput("trace has no instruction fetches"));
    }
    let encoder = RegionEncoder::train(&stream, num_regions);
    let report = encoder.evaluate(&stream);
    let bus = BusModel::onchip(tech, 32);
    Ok(BusCodingOutcome {
        name: name.to_owned(),
        fetches: stream.len() as u64,
        raw_transitions: report.raw_transitions,
        encoded_transitions: report.encoded_transitions,
        businvert_transitions: BusInvert::transitions(&stream),
        regions: report.regions,
        gates: report.gates,
        raw_energy: bus.energy_of(report.raw_transitions),
        encoded_energy: bus.energy_of(report.encoded_transitions),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_isa::Kernel;

    #[test]
    fn encoding_reduces_kernel_fetch_transitions() {
        let run = Kernel::Fir.run(48, 2).unwrap();
        let out = run_buscoding("fir", &run.trace, 4, &Technology::tech180()).unwrap();
        assert!(out.fetches > 1000);
        assert!(out.raw_transitions > 0);
        assert!(
            out.encoded_transitions < out.raw_transitions,
            "encoding must reduce transitions"
        );
        assert!(out.encoded_energy < out.raw_energy);
        assert!(out.reduction() > 0.0);
    }

    #[test]
    fn functional_encoding_beats_businvert_on_kernels() {
        // Loop-dominated fetch streams have strong inter-bit correlation,
        // which the XOR family exploits and bus-invert cannot.
        let run = Kernel::MatMul.run(10, 1).unwrap();
        let out = run_buscoding("matmul", &run.trace, 4, &Technology::tech180()).unwrap();
        assert!(
            out.encoded_transitions < out.businvert_transitions,
            "xor {} vs businvert {}",
            out.encoded_transitions,
            out.businvert_transitions
        );
    }

    #[test]
    fn region_counts_outside_the_encoder_range_are_rejected() {
        let run = Kernel::Fir.run(8, 1).unwrap();
        let tech = Technology::tech180();
        for regions in [0, RegionEncoder::MAX_REGIONS + 1, 100_000_000] {
            assert!(matches!(
                run_buscoding("fir", &run.trace, regions, &tech).unwrap_err(),
                FlowError::InvalidSpec(_)
            ));
        }
        for regions in [1, RegionEncoder::MAX_REGIONS] {
            assert!(run_buscoding("fir", &run.trace, regions, &tech).is_ok());
        }
    }

    #[test]
    fn price_bus_sums_transitions_over_streams_before_pricing() {
        let tech = Technology::tech180();
        let fir = Kernel::Fir.run(16, 2).unwrap().trace;
        let dct = Kernel::Dct8.run(16, 3).unwrap().trace;
        // One stream on the XOR bus prices what the 1B.3 flow reports.
        let f = run_buscoding("fir", &fir, 4, &tech).unwrap();
        let one = price_bus([&fir], BusChoice::Xor(4), &tech).unwrap();
        assert_eq!(
            (one.fetches, one.raw, one.encoded),
            (f.fetches, f.raw_energy, f.encoded_energy)
        );
        // Two private buses: each trains on its own stream, and the summed
        // transitions are priced once.
        let d = run_buscoding("dct8", &dct, 4, &tech).unwrap();
        let both = price_bus([&fir, &dct], BusChoice::Xor(4), &tech).unwrap();
        let bus = BusModel::onchip(&tech, 32);
        let raw = f.raw_transitions + d.raw_transitions;
        let encoded = f.encoded_transitions + d.encoded_transitions;
        assert_eq!(both.fetches, f.fetches + d.fetches);
        assert_eq!(both.raw, bus.energy_of(raw));
        assert_eq!(both.encoded, bus.energy_of(encoded));
        assert_eq!(both.gates, codec_gate_energy(&bus, raw, encoded));
        // The raw bus has no codec to charge.
        let plain = price_bus([&fir], BusChoice::Raw, &tech).unwrap();
        assert_eq!((plain.encoded, plain.gates), (one.raw, Energy::ZERO));
        // Bad region counts and fetchless traces are errors, not panics.
        for bus in [
            BusChoice::Xor(0),
            BusChoice::Xor(RegionEncoder::MAX_REGIONS + 1),
        ] {
            assert!(matches!(
                price_bus([&fir], bus, &tech).unwrap_err(),
                FlowError::InvalidSpec(_)
            ));
        }
        let fetchless: Trace = vec![lpmem_trace::MemEvent::read(0)].into();
        assert!(matches!(
            price_bus([&fir, &fetchless], BusChoice::Gray, &tech).unwrap_err(),
            FlowError::EmptyInput(_)
        ));
    }

    #[test]
    fn fetchless_trace_is_rejected() {
        let trace: Trace = vec![lpmem_trace::MemEvent::read(0)].into();
        assert!(matches!(
            run_buscoding("x", &trace, 2, &Technology::tech180()).unwrap_err(),
            FlowError::EmptyInput(_)
        ));
    }
}
