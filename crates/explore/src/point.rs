//! The design-point encoding and the axis space it lives in.
//!
//! A [`DesignPoint`] fixes every cross-flow knob of the memory platform at
//! once: scratchpad banking, clustering granularity, D-cache geometry,
//! write-back codec, instruction-bus encoding, and scheduler L0 capacity.
//! A [`DesignSpace`] is the per-axis choice lists a search enumerates,
//! samples, and recombines — always through the space, so every produced
//! point stays on the axes.

use std::fmt;

use lpmem_cmp::{CmpSpec, LlcCodec, DEFAULT_QUANTUM};
use lpmem_core::flows::compression::PlatformKind;
use lpmem_core::flows::spec::VariantSpec;
use lpmem_energy::TechNode;
use lpmem_mem::CacheConfig;
use lpmem_util::Rng;

/// D-cache geometry: capacity, line size, associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CacheGeom {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u32,
    /// Associativity (ways).
    pub ways: u32,
}

impl CacheGeom {
    /// The simulator configuration of this geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`lpmem_mem::MemError`] for invalid geometries.
    pub fn config(&self) -> Result<CacheConfig, lpmem_mem::MemError> {
        CacheConfig::new(self.size, self.line, self.ways)
    }
}

impl fmt::Display for CacheGeom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.size, self.line, self.ways)
    }
}

/// Write-back compression codec choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CodecChoice {
    /// No compression hardware at all (no codec energy or area).
    Off,
    /// Word-differencing codec ([`lpmem_compress::DiffCodec`]).
    Differential,
    /// Zero-run codec ([`lpmem_compress::ZeroRunCodec`]).
    ZeroRun,
    /// Frequent-pattern codec ([`lpmem_compress::FpcCodec`]).
    Fpc,
}

impl CodecChoice {
    /// Every codec choice, in axis order.
    pub const ALL: [CodecChoice; 4] = [
        CodecChoice::Off,
        CodecChoice::Differential,
        CodecChoice::ZeroRun,
        CodecChoice::Fpc,
    ];

    /// Short key used in point keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            CodecChoice::Off => "off",
            CodecChoice::Differential => "diff",
            CodecChoice::ZeroRun => "zrun",
            CodecChoice::Fpc => "fpc",
        }
    }
}

/// Instruction-bus encoding choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum BusChoice {
    /// Unencoded bus (no encoder energy or area).
    Raw,
    /// Gray-coded words.
    Gray,
    /// Bus-invert coding (one extra invert line).
    BusInvert,
    /// Trained per-region XOR encoding with this many regions.
    Xor(usize),
}

impl BusChoice {
    /// Short key used in point keys and reports.
    pub fn name(self) -> String {
        match self {
            BusChoice::Raw => "raw".to_owned(),
            BusChoice::Gray => "gray".to_owned(),
            BusChoice::BusInvert => "businv".to_owned(),
            BusChoice::Xor(r) => format!("xor{r}"),
        }
    }
}

/// One complete cross-flow platform configuration.
///
/// The key ties every axis into a stable, human-readable identifier
/// (`b8-k2048-c4096x64x2-diff-xor4-l01024`) used for deduplication,
/// deterministic tie-breaking, and JSONL rows.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DesignPoint {
    /// Scratchpad bank budget (partitioning `max_banks`).
    pub banks: usize,
    /// Clustering/profiling block granularity in bytes.
    pub block: u64,
    /// D-cache geometry.
    pub cache: CacheGeom,
    /// Write-back codec.
    pub codec: CodecChoice,
    /// Instruction-bus encoding.
    pub bus: BusChoice,
    /// Scheduler L0 scratchpad capacity in bytes.
    pub l0: u64,
    /// Chip-multiprocessor scenario: `None` is the single-core platform
    /// every pre-CMP frontier was built from (its keys and JSONL rows
    /// stay byte-identical); `Some` puts the point's D-cache geometry
    /// behind the shared compressed NUCA LLC the spec describes.
    pub cmp: Option<CmpSpec>,
}

impl DesignPoint {
    /// The stable identifier of this point.
    pub fn key(&self) -> String {
        let base = format!(
            "b{}-k{}-c{}-{}-{}-l0{}",
            self.banks,
            self.block,
            self.cache,
            self.codec.name(),
            self.bus.name(),
            self.l0
        );
        match &self.cmp {
            None => base,
            Some(spec) => format!("{base}-{}", spec.label()),
        }
    }

    /// Checks the structural validity constraints every axis value must
    /// satisfy regardless of which space produced the point.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.banks == 0 {
            return Err("bank budget must be at least 1".to_owned());
        }
        if self.block == 0 || !self.block.is_power_of_two() {
            return Err(format!("block size {} must be a power of two", self.block));
        }
        self.cache
            .config()
            .map_err(|e| format!("cache geometry: {e}"))?;
        if let BusChoice::Xor(0) = self.bus {
            return Err("xor encoding needs at least one region".to_owned());
        }
        if self.l0 == 0 || !self.l0.is_power_of_two() {
            return Err(format!("l0 capacity {} must be a power of two", self.l0));
        }
        if let Some(spec) = &self.cmp {
            // On this axis `None` already is the single-core platform, so
            // disabled and passthrough specs would only duplicate it under
            // a different key — the axis carries active scenarios only.
            if !spec.enabled() {
                return Err("a CMP scenario on the axis must be enabled".to_owned());
            }
            if spec.passthrough() {
                return Err(format!(
                    "passthrough CMP scenario {} duplicates the single-core point",
                    spec.label()
                ));
            }
            spec.validate(self.cache.line)
                .map_err(|e| format!("cmp scenario: {e}"))?;
        }
        Ok(())
    }

    /// Embeds a sweep-grid [`VariantSpec`] into the exploration space: the
    /// configuration the existing experiments run, expressed as a point the
    /// explorer can score and seed its search with.
    pub fn from_variant(variant: &VariantSpec) -> DesignPoint {
        let cache = match variant.platform {
            PlatformKind::VliwLike => CacheGeom {
                size: 4 << 10,
                line: 64,
                ways: 2,
            },
            PlatformKind::RiscLike => CacheGeom {
                size: 2 << 10,
                line: 16,
                ways: 2,
            },
        };
        DesignPoint {
            banks: variant.max_banks,
            block: variant.block_size,
            cache,
            codec: CodecChoice::Differential,
            bus: BusChoice::Xor(variant.regions),
            l0: variant.l0_bytes,
            cmp: None,
        }
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

/// The per-axis choice lists a search runs over.
///
/// All search operators (enumeration, sampling, mutation, crossover) go
/// through the space, so every point they produce is drawn from the axis
/// lists — validity is a property of the space, checked once by
/// [`DesignSpace::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DesignSpace {
    /// Bank-budget axis.
    pub banks: Vec<usize>,
    /// Block-granularity axis (bytes).
    pub blocks: Vec<u64>,
    /// D-cache geometry axis.
    pub caches: Vec<CacheGeom>,
    /// Codec axis.
    pub codecs: Vec<CodecChoice>,
    /// Bus-encoding axis.
    pub buses: Vec<BusChoice>,
    /// L0-capacity axis (bytes).
    pub l0s: Vec<u64>,
    /// CMP-scenario axis. `vec![None]` (the only value in [`full`] and
    /// [`small`]) keeps the space exactly its pre-CMP self; the
    /// [`DesignSpace::cmp`] preset widens it with active scenarios.
    ///
    /// [`full`]: DesignSpace::full
    /// [`small`]: DesignSpace::small
    pub cmps: Vec<Option<CmpSpec>>,
}

impl DesignSpace {
    /// The full exploration space: every axis at its production breadth
    /// (20 736 points). Contains the embeddings of both sweep variants
    /// (`default` and `tight`).
    pub fn full() -> DesignSpace {
        let mut caches = Vec::new();
        for size in [2u64 << 10, 4 << 10, 8 << 10] {
            for line in [16u32, 32, 64] {
                for ways in [1u32, 2] {
                    caches.push(CacheGeom { size, line, ways });
                }
            }
        }
        DesignSpace {
            banks: vec![2, 4, 8, 16],
            blocks: vec![1024, 2048, 4096],
            caches,
            codecs: CodecChoice::ALL.to_vec(),
            buses: vec![
                BusChoice::Raw,
                BusChoice::Gray,
                BusChoice::BusInvert,
                BusChoice::Xor(1),
                BusChoice::Xor(4),
                BusChoice::Xor(8),
            ],
            l0s: vec![256, 512, 1024, 2048],
            cmps: vec![None],
        }
    }

    /// The chip-multiprocessor exploration space: [`full`] widened with a
    /// seventh axis of active CMP scenarios — core count × NUCA geometry
    /// (banks × bank capacity × ways) × LLC codec × heterogeneous
    /// technology split, all under the headline 600 µW leakage budget.
    ///
    /// The axis keeps `None` (the single-core platform) so pre-CMP
    /// designs stay comparable on the same frontier, and filters
    /// technology splits to at most one partition per bank. The result is
    /// a 1441-scenario axis over the 20 736-point base: a 29 880 576-point
    /// space (pinned by test), satisfying the ≥10⁷-point exploration goal.
    ///
    /// [`full`]: DesignSpace::full
    pub fn cmp() -> DesignSpace {
        let mut cmps: Vec<Option<CmpSpec>> = vec![None];
        let splits: [&[TechNode]; 7] = [
            &[TechNode::T180],
            &[TechNode::T130],
            &[TechNode::T90],
            &[TechNode::T180, TechNode::T90],
            &[TechNode::T180, TechNode::T130],
            &[TechNode::T130, TechNode::T90],
            &[TechNode::T180, TechNode::T130, TechNode::T90],
        ];
        for cores in [2u32, 4, 8] {
            for banks in [2u32, 4, 8] {
                for bank_kib in [16u32, 32, 64] {
                    for ways in [2u32, 4] {
                        for codec in LlcCodec::ALL {
                            for techs in splits {
                                if techs.len() > banks as usize {
                                    continue;
                                }
                                cmps.push(Some(CmpSpec {
                                    cores,
                                    banks,
                                    bank_kib,
                                    ways,
                                    codec,
                                    techs: techs.to_vec(),
                                    budget_uw: 600,
                                    quantum: DEFAULT_QUANTUM,
                                }));
                            }
                        }
                    }
                }
            }
        }
        DesignSpace {
            cmps,
            ..DesignSpace::full()
        }
    }

    /// The 32-point space of the DSE-2 agreement experiment: small enough
    /// to exhaust, structured enough that the frontier is non-trivial.
    pub fn small() -> DesignSpace {
        DesignSpace {
            banks: vec![4, 8],
            blocks: vec![2048],
            caches: vec![
                CacheGeom {
                    size: 2 << 10,
                    line: 16,
                    ways: 2,
                },
                CacheGeom {
                    size: 4 << 10,
                    line: 64,
                    ways: 2,
                },
            ],
            codecs: vec![CodecChoice::Off, CodecChoice::Differential],
            buses: vec![BusChoice::Raw, BusChoice::Xor(4)],
            l0s: vec![512, 1024],
            cmps: vec![None],
        }
    }

    /// Number of points in the space (product of axis lengths).
    pub fn len(&self) -> usize {
        self.banks.len()
            * self.blocks.len()
            * self.caches.len()
            * self.codecs.len()
            * self.buses.len()
            * self.l0s.len()
            * self.cmps.len()
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the point at a mixed-radix index in enumeration order
    /// (banks vary slowest, L0 fastest).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn point_at(&self, idx: usize) -> DesignPoint {
        assert!(
            idx < self.len(),
            "index {idx} out of a {}-point space",
            self.len()
        );
        let mut rest = idx;
        let mut take = |len: usize| {
            let i = rest % len;
            rest /= len;
            i
        };
        // Consume fastest-varying axes first (the reverse of the nesting).
        // The CMP axis varies slowest so a widened space enumerates its
        // entire pre-CMP prefix (cmp = None) first, in the old order.
        let l0 = self.l0s[take(self.l0s.len())];
        let bus = self.buses[take(self.buses.len())];
        let codec = self.codecs[take(self.codecs.len())];
        let cache = self.caches[take(self.caches.len())];
        let block = self.blocks[take(self.blocks.len())];
        let banks = self.banks[take(self.banks.len())];
        let cmp = self.cmps[take(self.cmps.len())].clone();
        DesignPoint {
            banks,
            block,
            cache,
            codec,
            bus,
            l0,
            cmp,
        }
    }

    /// The mixed-radix index of `point` in enumeration order, the inverse
    /// of [`DesignSpace::point_at`]; `None` when any axis value of `point`
    /// is not on its axis. On a validated space (no duplicate axis
    /// values) two points share an index exactly when they are equal.
    pub fn index_of(&self, point: &DesignPoint) -> Option<usize> {
        fn digit<T: PartialEq>(axis: &[T], value: &T) -> Option<(usize, usize)> {
            Some((axis.iter().position(|v| v == value)?, axis.len()))
        }
        // Slowest-varying axis first: the nesting `point_at` unwinds.
        let digits = [
            digit(&self.cmps, &point.cmp)?,
            digit(&self.banks, &point.banks)?,
            digit(&self.blocks, &point.block)?,
            digit(&self.caches, &point.cache)?,
            digit(&self.codecs, &point.codec)?,
            digit(&self.buses, &point.bus)?,
            digit(&self.l0s, &point.l0)?,
        ];
        Some(digits.iter().fold(0, |idx, &(d, len)| idx * len + d))
    }

    /// Iterates every point in enumeration order.
    pub fn enumerate(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        (0..self.len()).map(|i| self.point_at(i))
    }

    /// `true` when every axis value of `point` is on the corresponding
    /// axis list.
    pub fn contains(&self, point: &DesignPoint) -> bool {
        self.index_of(point).is_some()
    }

    /// Checks that the space is non-empty, that no axis lists a value
    /// twice, and that every point it can produce is structurally valid
    /// (it suffices to check each axis value once).
    ///
    /// A repeated value would make [`DesignSpace::len`] count one point
    /// twice and [`DesignSpace::index_of`] disagree with
    /// [`DesignSpace::point_at`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid axis value.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("design space has an empty axis".to_owned());
        }
        fn repeated<T: PartialEq + fmt::Debug>(name: &str, axis: &[T]) -> Result<(), String> {
            match (1..axis.len()).find(|&i| axis[..i].contains(&axis[i])) {
                Some(i) => Err(format!("{name} axis lists {:?} twice", axis[i])),
                None => Ok(()),
            }
        }
        repeated("bank", &self.banks)?;
        repeated("block", &self.blocks)?;
        repeated("cache", &self.caches)?;
        repeated("codec", &self.codecs)?;
        repeated("bus", &self.buses)?;
        repeated("l0", &self.l0s)?;
        repeated("cmp", &self.cmps)?;
        // One representative point per axis value covers all constraints,
        // since validity is per-axis.
        let base = self.point_at(0);
        for &banks in &self.banks {
            DesignPoint {
                banks,
                ..base.clone()
            }
            .validate()?;
        }
        for &block in &self.blocks {
            DesignPoint {
                block,
                ..base.clone()
            }
            .validate()?;
        }
        for &cache in &self.caches {
            DesignPoint {
                cache,
                ..base.clone()
            }
            .validate()?;
        }
        for &codec in &self.codecs {
            DesignPoint {
                codec,
                ..base.clone()
            }
            .validate()?;
        }
        for &bus in &self.buses {
            DesignPoint {
                bus,
                ..base.clone()
            }
            .validate()?;
        }
        for &l0 in &self.l0s {
            DesignPoint { l0, ..base.clone() }.validate()?;
        }
        // The CMP axis is the one cross-axis constraint (bank capacity
        // vs. L1 line size), so check it against every cache geometry.
        for cmp in &self.cmps {
            for &cache in &self.caches {
                DesignPoint {
                    cmp: cmp.clone(),
                    cache,
                    ..base.clone()
                }
                .validate()?;
            }
        }
        Ok(())
    }

    /// Draws a uniformly random point.
    pub fn sample(&self, rng: &mut Rng) -> DesignPoint {
        let pick = |rng: &mut Rng, len: usize| rng.bounded_u64(len as u64) as usize;
        DesignPoint {
            banks: self.banks[pick(rng, self.banks.len())],
            block: self.blocks[pick(rng, self.blocks.len())],
            cache: self.caches[pick(rng, self.caches.len())],
            codec: self.codecs[pick(rng, self.codecs.len())],
            bus: self.buses[pick(rng, self.buses.len())],
            l0: self.l0s[pick(rng, self.l0s.len())],
            cmp: self.cmps[pick(rng, self.cmps.len())].clone(),
        }
    }

    /// Replaces one randomly chosen axis value with a different value from
    /// the same axis (a no-op on axes with a single choice — the next axis
    /// in round-robin order is tried instead).
    pub fn mutate(&self, point: &DesignPoint, rng: &mut Rng) -> DesignPoint {
        let mut out = point.clone();
        let start = rng.bounded_u64(7);
        for step in 0..7 {
            let axis = (start + step) % 7;
            if self.mutate_axis(&mut out, axis, rng) {
                return out;
            }
        }
        out
    }

    /// Mutates one axis in place; `false` when the axis has no alternative
    /// value to switch to.
    fn mutate_axis(&self, point: &mut DesignPoint, axis: u64, rng: &mut Rng) -> bool {
        // Draws the same index the alternatives' list would, without
        // building the list: mutation runs once per proposal.
        fn other<T: PartialEq + Clone>(list: &[T], current: &T, rng: &mut Rng) -> Option<T> {
            let count = list.iter().filter(|v| *v != current).count();
            if count == 0 {
                return None;
            }
            let k = rng.bounded_u64(count as u64) as usize;
            list.iter().filter(|v| *v != current).nth(k).cloned()
        }
        match axis {
            0 => other(&self.banks, &point.banks, rng).map(|v| point.banks = v),
            1 => other(&self.blocks, &point.block, rng).map(|v| point.block = v),
            2 => other(&self.caches, &point.cache, rng).map(|v| point.cache = v),
            3 => other(&self.codecs, &point.codec, rng).map(|v| point.codec = v),
            4 => other(&self.buses, &point.bus, rng).map(|v| point.bus = v),
            5 => other(&self.l0s, &point.l0, rng).map(|v| point.l0 = v),
            _ => other(&self.cmps, &point.cmp, rng).map(|v| point.cmp = v),
        }
        .is_some()
    }

    /// Uniform per-axis crossover of two parents.
    pub fn crossover(&self, a: &DesignPoint, b: &DesignPoint, rng: &mut Rng) -> DesignPoint {
        DesignPoint {
            banks: if rng.gen_bool(0.5) { a.banks } else { b.banks },
            block: if rng.gen_bool(0.5) { a.block } else { b.block },
            cache: if rng.gen_bool(0.5) { a.cache } else { b.cache },
            codec: if rng.gen_bool(0.5) { a.codec } else { b.codec },
            bus: if rng.gen_bool(0.5) { a.bus } else { b.bus },
            l0: if rng.gen_bool(0.5) { a.l0 } else { b.l0 },
            cmp: if rng.gen_bool(0.5) {
                a.cmp.clone()
            } else {
                b.cmp.clone()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        for space in [DesignSpace::small(), DesignSpace::full()] {
            let keys: std::collections::HashSet<String> =
                space.enumerate().map(|p| p.key()).collect();
            assert_eq!(keys.len(), space.len(), "keys must be unique");
        }
        let space = DesignSpace::small();
        let p = space.point_at(0);
        assert_eq!(p.key(), space.point_at(0).key(), "keys must be stable");
        // A CMP point's key is its base key plus the scenario label, so
        // distinct labels keep keys unique over the whole CMP space.
        let labels: std::collections::HashSet<String> = DesignSpace::cmp()
            .cmps
            .iter()
            .flatten()
            .map(CmpSpec::label)
            .collect();
        assert_eq!(labels.len(), DesignSpace::cmp().cmps.len() - 1);
    }

    #[test]
    fn index_of_inverts_point_at() {
        for space in [DesignSpace::small(), DesignSpace::full()] {
            for i in 0..space.len() {
                assert_eq!(space.index_of(&space.point_at(i)), Some(i));
            }
        }
        let cmp = DesignSpace::cmp();
        let mut rng = Rng::seed_from_u64(29);
        for i in [0, 1, 20_735, 20_736, cmp.len() - 1] {
            assert_eq!(cmp.index_of(&cmp.point_at(i)), Some(i));
        }
        for _ in 0..4096 {
            let i = rng.bounded_u64(cmp.len() as u64) as usize;
            assert_eq!(cmp.index_of(&cmp.point_at(i)), Some(i));
            let p = cmp.sample(&mut rng);
            assert_eq!(cmp.point_at(cmp.index_of(&p).expect("on the axes")), p);
        }
    }

    #[test]
    fn index_of_rejects_off_axis_points() {
        let space = DesignSpace::small();
        let p = space.point_at(5);
        let off_axis = [
            DesignPoint {
                banks: 64,
                ..p.clone()
            },
            DesignPoint {
                block: 4096,
                ..p.clone()
            },
            DesignPoint {
                cache: CacheGeom {
                    size: 8 << 10,
                    line: 64,
                    ways: 2,
                },
                ..p.clone()
            },
            DesignPoint {
                codec: CodecChoice::Fpc,
                ..p.clone()
            },
            DesignPoint {
                bus: BusChoice::Gray,
                ..p.clone()
            },
            DesignPoint {
                l0: 256,
                ..p.clone()
            },
            DesignPoint {
                cmp: Some(CmpSpec::quad()),
                ..p.clone()
            },
        ];
        for q in &off_axis {
            assert!(!space.contains(q));
            assert_eq!(space.index_of(q), None, "{}", q.key());
        }
        // The widened CMP space holds every single-core point at its
        // pre-CMP index.
        let full = DesignSpace::full();
        let cmp = DesignSpace::cmp();
        let q = full.point_at(777);
        assert_eq!(cmp.index_of(&q), Some(777));
        assert_eq!(full.index_of(&cmp.point_at(full.len())), None);
    }

    #[test]
    fn repeated_axis_values_are_rejected() {
        let mut space = DesignSpace::small();
        space.validate().unwrap();
        space.l0s.push(space.l0s[0]);
        let err = space.validate().unwrap_err();
        assert!(err.contains("l0 axis"), "{err}");
        let mut space = DesignSpace::cmp();
        space.cmps.push(space.cmps[1].clone());
        let err = space.validate().unwrap_err();
        assert!(err.contains("cmp axis"), "{err}");
        let mut space = DesignSpace::full();
        space.buses.insert(1, BusChoice::Xor(8));
        assert!(space.validate().unwrap_err().contains("bus axis"));
    }

    #[test]
    fn spaces_are_valid_and_sized_as_documented() {
        let full = DesignSpace::full();
        assert_eq!(full.len(), 4 * 3 * 18 * 4 * 6 * 4);
        full.validate().unwrap();
        let small = DesignSpace::small();
        assert_eq!(small.len(), 32);
        small.validate().unwrap();
    }

    #[test]
    fn cmp_space_is_pinned_and_exceeds_ten_million_points() {
        let space = DesignSpace::cmp();
        // 1440 active scenarios + the single-core None over the full base.
        assert_eq!(space.cmps.len(), 1441);
        assert_eq!(space.len(), 20_736 * 1441);
        assert!(space.len() >= 10_000_000, "ROADMAP item 4 floor");
        space.validate().unwrap();
        // The widened space enumerates its entire pre-CMP prefix first, in
        // the old order, so existing frontier seeds keep their indices.
        let full = DesignSpace::full();
        assert_eq!(space.point_at(0), full.point_at(0));
        assert_eq!(
            space.point_at(full.len() - 1),
            full.point_at(full.len() - 1)
        );
        assert!(space.point_at(full.len()).cmp.is_some());
        // Scenario keys stay distinct from the base point's key.
        let base = space.point_at(0);
        let widened = space.point_at(full.len());
        assert!(widened.key().starts_with(&base.key()));
        assert_ne!(widened.key(), base.key());
    }

    #[test]
    fn cmp_axis_rejects_degenerate_scenarios() {
        let good = DesignSpace::cmp().point_at(20_736);
        assert!(good.cmp.is_some());
        good.validate().unwrap();
        assert!(DesignPoint {
            cmp: Some(CmpSpec::off()),
            ..good.clone()
        }
        .validate()
        .is_err());
        let passthrough = CmpSpec {
            cores: 2,
            banks: 1,
            bank_kib: 32,
            ways: 4,
            ..CmpSpec::off()
        };
        assert!(DesignPoint {
            cmp: Some(passthrough),
            ..good.clone()
        }
        .validate()
        .is_err());
        let tiny_bank = CmpSpec {
            bank_kib: 0,
            ..CmpSpec::quad()
        };
        assert!(DesignPoint {
            cmp: Some(tiny_bank),
            ..good
        }
        .validate()
        .is_err());
    }

    #[test]
    fn enumeration_visits_every_point_once() {
        let space = DesignSpace::small();
        let points: Vec<DesignPoint> = space.enumerate().collect();
        assert_eq!(points.len(), 32);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(*p, space.point_at(i));
            assert!(space.contains(p));
        }
    }

    #[test]
    fn sweep_variants_embed_into_the_full_space() {
        let space = DesignSpace::full();
        for variant in [VariantSpec::default(), VariantSpec::tight()] {
            let p = DesignPoint::from_variant(&variant);
            p.validate().unwrap();
            assert!(space.contains(&p), "{} not on the axes", p.key());
        }
        let d = DesignPoint::from_variant(&VariantSpec::default());
        assert_eq!(d.key(), "b8-k2048-c4096x64x2-diff-xor4-l01024");
    }

    #[test]
    fn operators_stay_on_the_axes() {
        let space = DesignSpace::full();
        let mut rng = Rng::seed_from_u64(7);
        let mut a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        for _ in 0..200 {
            let child = space.crossover(&a, &b, &mut rng);
            let mutant = space.mutate(&child, &mut rng);
            assert!(space.contains(&child));
            assert!(space.contains(&mutant));
            a = mutant;
        }
    }

    #[test]
    fn mutation_changes_exactly_one_axis() {
        // `full` has a single-choice CMP axis (mutation falls through to
        // the next axis); `cmp` exercises mutation onto and off scenarios.
        for space in [DesignSpace::full(), DesignSpace::cmp()] {
            let mut rng = Rng::seed_from_u64(11);
            let p = space.sample(&mut rng);
            for _ in 0..50 {
                let m = space.mutate(&p, &mut rng);
                let diffs = [
                    m.banks != p.banks,
                    m.block != p.block,
                    m.cache != p.cache,
                    m.codec != p.codec,
                    m.bus != p.bus,
                    m.l0 != p.l0,
                    m.cmp != p.cmp,
                ]
                .iter()
                .filter(|&&d| d)
                .count();
                assert_eq!(diffs, 1, "{} vs {}", p.key(), m.key());
            }
        }
    }

    #[test]
    fn invalid_points_are_rejected() {
        let good = DesignSpace::small().point_at(0);
        assert!(DesignPoint {
            banks: 0,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(DesignPoint {
            block: 1000,
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(DesignPoint {
            bus: BusChoice::Xor(0),
            ..good.clone()
        }
        .validate()
        .is_err());
        assert!(DesignPoint {
            l0: 0,
            ..good.clone()
        }
        .validate()
        .is_err());
        let bad_cache = CacheGeom {
            size: 100,
            line: 64,
            ways: 2,
        };
        assert!(DesignPoint {
            cache: bad_cache,
            ..good
        }
        .validate()
        .is_err());
    }
}
