//! Named workload suites used by the experiment harness and examples, plus
//! the per-device workload archetypes and mixes the fleet simulator draws
//! from (DESIGN.md §11).

use lpmem_isa::Kernel;
use lpmem_mem::FlatMemory;
use lpmem_trace::gen::{HotColdGen, MarkovGen, PhaseScatterGen, PointerChaseGen, StridedGen};
use lpmem_trace::{MemEvent, Trace};
use lpmem_util::Rng;

use crate::FlowError;

/// [`Kernel::run`]'s trace together with the program's initial memory
/// image (the state a replay cache must start from).
///
/// # Errors
///
/// Propagates kernel execution errors.
pub fn kernel_trace_and_image(
    kernel: Kernel,
    scale: u32,
    seed: u64,
) -> Result<(Trace, FlatMemory), FlowError> {
    let run = kernel.run(scale, seed)?;
    Ok((run.trace, run.image))
}

/// Synthetic profiles with scattered hot sets — the workload family where
/// address clustering shines (used alongside the composite applications in
/// T1). All variants have more hot blocks than the 8-bank budget of the
/// headline experiment, so contiguous partitioning cannot isolate them.
/// Returns `(name, trace)` pairs.
pub fn scattered_suite(seed: u64) -> Vec<(String, Trace)> {
    let mut suite = Vec::new();
    for (name, hot, prob, span) in [
        ("scatter-sparse", 10usize, 0.90f64, 1u64 << 17),
        ("scatter-medium", 16, 0.88, 1 << 17),
        ("scatter-dense", 24, 0.85, 1 << 18),
        ("scatter-extreme", 12, 0.96, 1 << 18),
    ] {
        let trace: Trace = HotColdGen::new(span, hot, prob)
            .block_size(2048)
            .seed(seed)
            .events(80_000)
            .collect();
        suite.push((name.to_owned(), trace));
    }
    // A phase-structured workload (media-pipeline-like).
    let regions = vec![(0u64, 8 << 10), (96 << 10, 4 << 10), (160 << 10, 16 << 10)];
    let trace: Trace = MarkovGen::new(regions, 0.002)
        .seed(seed)
        .events(80_000)
        .collect();
    suite.push(("phased-media".to_owned(), trace));
    suite
}

/// Builds a composite embedded *application* trace from a sequence of
/// kernel phases, relocating each kernel's data sections into an
/// interleaved "linker" layout.
///
/// Single kernels lay their data out in three tidy contiguous sections, so
/// a bank-limited partitioner can already isolate them. Real embedded
/// applications link many objects of wildly different heat in declaration
/// order — hot coefficient tables sit between cold frame buffers. This
/// builder reproduces that structure from real TinyRISC traces: each
/// kernel's input/output/table sections are assigned consecutive 16 KiB
/// slots grouped *by kernel* (declaration order), so hot objects of
/// different phases end up scattered across the address map.
///
/// # Errors
///
/// Propagates kernel execution errors.
pub fn composite_app(phases: &[(Kernel, u32)], seed: u64) -> Result<Trace, FlowError> {
    const SECTION_SHIFT: u32 = 16; // kernel sections are 64 KiB apart
    const SLOT_BYTES: u64 = 16 << 10; // relocated object slot
    let mut out = Trace::new();
    for (k_idx, &(kernel, scale)) in phases.iter().enumerate() {
        let run = kernel
            .run(scale, seed ^ (k_idx as u64))
            .map_err(FlowError::from)?;
        for ev in run.trace.data_only() {
            // Original sections start at 0x10000 (in), 0x20000 (out),
            // 0x30000 (tables).
            let region = (ev.addr >> SECTION_SHIFT).saturating_sub(1);
            let offset = ev.addr & ((1 << SECTION_SHIFT) - 1);
            let slot = (k_idx as u64) * 3 + region;
            let mut moved = ev;
            moved.addr = slot * SLOT_BYTES + (offset % SLOT_BYTES);
            out.push(moved);
        }
    }
    Ok(out)
}

/// The composite-application suite used by the T1 experiment: four
/// multi-phase embedded applications in the style of the 1B.1 evaluation.
///
/// # Errors
///
/// Propagates kernel execution errors.
pub fn composite_suite(seed: u64) -> Result<Vec<(String, Trace)>, FlowError> {
    let apps: Vec<(&str, Vec<(Kernel, u32)>)> = vec![
        (
            "app-media",
            vec![
                (Kernel::Fir, 96),
                (Kernel::Dct8, 24),
                (Kernel::Conv2d, 16),
                (Kernel::RleEncode, 96),
            ],
        ),
        (
            "app-inspect",
            vec![
                (Kernel::Crc32, 96),
                (Kernel::Histogram, 96),
                (Kernel::StrSearch, 96),
            ],
        ),
        (
            "app-dsp",
            vec![(Kernel::MatMul, 12), (Kernel::Fir, 64), (Kernel::Dct8, 16)],
        ),
        (
            "app-store",
            vec![
                (Kernel::BubbleSort, 64),
                (Kernel::Histogram, 64),
                (Kernel::RleEncode, 64),
            ],
        ),
    ];
    apps.into_iter()
        .map(|(name, phases)| Ok((name.to_owned(), composite_app(&phases, seed)?)))
        .collect()
}

/// A workload *archetype*: one of the synthetic generator families a fleet
/// device can run, with device-level parameter *drift* so no two devices of
/// the same class are exact clones.
///
/// Archetypes stream events directly from the generator iterators — the
/// fleet path never materializes a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceArchetype {
    /// Scattered hot working set ([`HotColdGen`]): embedded control code.
    HotCold,
    /// Loop-nest array sweeps ([`StridedGen`]): FIR/matmul-style traffic.
    Strided,
    /// Phase-structured region traffic ([`MarkovGen`]): media pipelines.
    Phased,
    /// Low-locality pointer chasing ([`PointerChaseGen`]): worst case.
    PointerChase,
    /// Interleaved per-phase working sets ([`PhaseScatterGen`]).
    PhaseScatter,
}

impl DeviceArchetype {
    /// Every archetype, in report order (the order of [`WorkloadMix`]
    /// weights).
    pub const ALL: [DeviceArchetype; 5] = [
        DeviceArchetype::HotCold,
        DeviceArchetype::Strided,
        DeviceArchetype::Phased,
        DeviceArchetype::PointerChase,
        DeviceArchetype::PhaseScatter,
    ];

    /// Stable lowercase name used in reports and CLI arguments.
    pub fn name(self) -> &'static str {
        match self {
            DeviceArchetype::HotCold => "hot-cold",
            DeviceArchetype::Strided => "strided",
            DeviceArchetype::Phased => "phased",
            DeviceArchetype::PointerChase => "chase",
            DeviceArchetype::PhaseScatter => "phase-scatter",
        }
    }

    /// Position in [`DeviceArchetype::ALL`] (and in mix weight vectors).
    pub fn index(self) -> usize {
        match self {
            DeviceArchetype::HotCold => 0,
            DeviceArchetype::Strided => 1,
            DeviceArchetype::Phased => 2,
            DeviceArchetype::PointerChase => 3,
            DeviceArchetype::PhaseScatter => 4,
        }
    }

    /// Returns a stream of exactly `n` events for one device of this
    /// archetype. `seed` drives the generator RNG; `drift` (any u64, only
    /// its low bits matter) deterministically jitters the generator's
    /// *parameters* — working-set size, stride, dwell, region count — so a
    /// fleet of one class still covers a parameter neighbourhood, the
    /// per-device heterogeneity the dark-silicon CMP work calls for.
    pub fn events(self, seed: u64, n: usize, drift: u64) -> Box<dyn Iterator<Item = MemEvent>> {
        match self {
            DeviceArchetype::HotCold => {
                let num_hot = 8 + (drift % 9) as usize;
                let hot_prob = 0.85 + 0.01 * (drift % 8) as f64;
                Box::new(
                    HotColdGen::new(1 << 17, num_hot, hot_prob)
                        .block_size(2048)
                        .seed(seed)
                        .events(n),
                )
            }
            DeviceArchetype::Strided => {
                let stride = 16u64 << (drift % 3);
                // Small enough that typical stream lengths wrap the array,
                // so strided devices exhibit the periodic reuse their real
                // loop nests would.
                let array = 4u64 << 10;
                let per_pass = (array / stride) as usize;
                let passes = n.div_ceil(per_pass);
                Box::new(
                    StridedGen::new(0x1_0000, array, stride, passes)
                        .write_every(4 + (drift % 4) as usize)
                        .events()
                        .take(n),
                )
            }
            DeviceArchetype::Phased => {
                let regions: Vec<(u64, u64)> = (0..2 + drift % 3)
                    .map(|r| (r * (96 << 10), (4u64 << 10) << (r % 3)))
                    .collect();
                let switch_prob = 0.002 + 0.001 * (drift % 4) as f64;
                Box::new(MarkovGen::new(regions, switch_prob).seed(seed).events(n))
            }
            DeviceArchetype::PointerChase => {
                let len = 1u64 << (14 + drift % 5);
                Box::new(PointerChaseGen::new(0x4_0000, len).seed(seed).events(n))
            }
            DeviceArchetype::PhaseScatter => {
                let phases = 2 + (drift % 4) as usize;
                let blocks_per_phase = 3 + (drift % 5) as usize;
                let dwell = 64usize << (drift % 3);
                Box::new(
                    PhaseScatterGen::new(phases, blocks_per_phase, dwell)
                        .seed(seed)
                        .events(n),
                )
            }
        }
    }
}

/// A named probability mix over [`DeviceArchetype`]s: the population profile
/// of a fleet. Weights are validated at construction (finite, non-negative,
/// positive sum), so [`WorkloadMix::pick`] is total.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    name: String,
    weights: [f64; DeviceArchetype::ALL.len()],
}

impl WorkloadMix {
    /// Every archetype equally likely.
    pub fn uniform() -> Self {
        WorkloadMix {
            name: "uniform".to_owned(),
            weights: [1.0; 5],
        }
    }

    /// Embedded-control fleet: dominated by hot-cold and strided traffic.
    pub fn embedded() -> Self {
        WorkloadMix {
            name: "embedded".to_owned(),
            weights: [4.0, 3.0, 1.0, 1.0, 1.0],
        }
    }

    /// Media fleet: dominated by phase-structured traffic.
    pub fn media() -> Self {
        WorkloadMix {
            name: "media".to_owned(),
            weights: [1.0, 1.0, 4.0, 1.0, 3.0],
        }
    }

    /// Pessimistic fleet: dominated by pointer chasing.
    pub fn chase() -> Self {
        WorkloadMix {
            name: "chase".to_owned(),
            weights: [1.0, 1.0, 1.0, 5.0, 2.0],
        }
    }

    /// Builds a mix from explicit weights (one per archetype, in
    /// [`DeviceArchetype::ALL`] order). Returns `None` unless every weight
    /// is finite and non-negative and the sum is positive.
    pub fn custom(name: &str, weights: [f64; 5]) -> Option<Self> {
        let valid =
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && weights.iter().sum::<f64>() > 0.0;
        if !valid {
            return None;
        }
        Some(WorkloadMix {
            name: name.to_owned(),
            weights,
        })
    }

    /// Parses a preset name (`uniform`, `embedded`, `media`, `chase`) or an
    /// explicit 5-weight list like `"4,3,1,1,1"`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "uniform" => return Some(Self::uniform()),
            "embedded" => return Some(Self::embedded()),
            "media" => return Some(Self::media()),
            "chase" => return Some(Self::chase()),
            _ => {}
        }
        let parts: Vec<f64> = s
            .split(',')
            .map(|p| p.trim().parse::<f64>().ok())
            .collect::<Option<Vec<f64>>>()?;
        let weights: [f64; 5] = parts.try_into().ok()?;
        Self::custom(s.trim(), weights)
    }

    /// The mix's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Weights in [`DeviceArchetype::ALL`] order.
    pub fn weights(&self) -> &[f64; 5] {
        &self.weights
    }

    /// Draws one archetype according to the weights.
    pub fn pick(&self, rng: &mut Rng) -> DeviceArchetype {
        let i = rng
            .weighted_index(&self.weights)
            .expect("mix weights validated at construction");
        DeviceArchetype::ALL[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpmem_isa::{Backend, Machine};

    #[test]
    fn kernel_runs_carry_their_trace_and_initial_image_on_both_backends() {
        let (scale, seed) = (4, 11);
        for kernel in Kernel::ALL {
            let program = kernel.program(scale, seed).unwrap();
            let fresh = Machine::new(&program);
            let (trace, image) = kernel_trace_and_image(kernel, scale, seed).unwrap();
            // Every loaded byte, and every address the run touched (the
            // outputs differ between the images before and after a run).
            let addrs: Vec<u64> = program
                .segments()
                .iter()
                .flat_map(|(base, bytes)| (u64::from(*base)..).take(bytes.len()))
                .chain(trace.iter().map(|ev| ev.addr))
                .collect();
            for backend in [Backend::Interpret, Backend::Compiled] {
                let run = kernel.run_with(backend, scale, seed).unwrap();
                assert_eq!(run.trace, trace, "{kernel} on {}", backend.name());
                for &addr in &addrs {
                    let want = fresh.mem().read_u8(addr);
                    assert_eq!(run.image.read_u8(addr), want, "{kernel} {addr:#x}");
                    assert_eq!(image.read_u8(addr), want, "{kernel} {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn composite_apps_have_scattered_heat() {
        use lpmem_trace::BlockProfile;
        let suite = composite_suite(1).unwrap();
        assert_eq!(suite.len(), 4);
        for (name, trace) in &suite {
            let p = BlockProfile::from_trace(trace, 2048).unwrap();
            // Interleaved layouts must show meaningful heat scatter.
            assert!(p.scatter() > 0.1, "{name} scatter {}", p.scatter());
        }
    }

    #[test]
    fn scattered_suite_has_scattered_profiles() {
        use lpmem_trace::BlockProfile;
        let suite = scattered_suite(3);
        assert_eq!(suite.len(), 5);
        for (name, trace) in &suite {
            let p = BlockProfile::from_trace(trace, 2048).unwrap();
            assert!(p.num_blocks() > 8, "{name} too small");
        }
    }

    #[test]
    fn archetypes_emit_exact_counts_for_every_drift() {
        for arch in DeviceArchetype::ALL {
            for drift in 0..12u64 {
                assert_eq!(
                    arch.events(7, 257, drift).count(),
                    257,
                    "{} drift {drift}",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn archetypes_are_deterministic_per_seed() {
        for arch in DeviceArchetype::ALL {
            let a: Vec<_> = arch.events(11, 300, 3).collect();
            let b: Vec<_> = arch.events(11, 300, 3).collect();
            assert_eq!(a, b, "{}", arch.name());
        }
    }

    #[test]
    fn archetype_index_matches_all_order() {
        for (i, arch) in DeviceArchetype::ALL.into_iter().enumerate() {
            assert_eq!(arch.index(), i);
        }
    }

    #[test]
    fn mix_parse_accepts_presets_and_weights() {
        assert_eq!(WorkloadMix::parse("uniform"), Some(WorkloadMix::uniform()));
        assert_eq!(WorkloadMix::parse("media"), Some(WorkloadMix::media()));
        let custom = WorkloadMix::parse("4,3,1,1,1").unwrap();
        assert_eq!(custom.weights(), &[4.0, 3.0, 1.0, 1.0, 1.0]);
        assert!(WorkloadMix::parse("bogus").is_none());
        assert!(WorkloadMix::parse("1,2,3").is_none());
        assert!(WorkloadMix::parse("1,2,3,4,-5").is_none());
        assert!(WorkloadMix::parse("0,0,0,0,0").is_none());
    }

    #[test]
    fn uniform_mix_covers_every_archetype() {
        let mix = WorkloadMix::uniform();
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[mix.pick(&mut rng).index()] = true;
        }
        assert_eq!(seen, [true; 5]);
    }
}
