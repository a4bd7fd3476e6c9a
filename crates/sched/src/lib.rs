//! Low-energy data management for two on-chip memory levels in
//! multi-context reconfigurable architectures: the contribution of DATE
//! 2003 1B.4 (Sánchez-Élez, Fernández, Anido, Du, Hermida, Bagherzadeh).
//!
//! A multi-context reconfigurable fabric (MorphoSys-class) executes an
//! application as a sequence of **contexts**, repeated over many loop
//! iterations (frames, blocks). Each context runs kernels that read and
//! write named **arrays**. The fabric has two on-chip data stores — a
//! small, cheap level L0 and a larger level L1 — backed by expensive
//! external memory. The *data scheduler* decides, per context, where each
//! live array resides, paying transfer energy when an array migrates. Spare
//! L1 capacity can also **keep a context's configuration resident** so that
//! loop iterations after the first reload it from on-chip memory instead of
//! streaming it from external memory — the paper's observation that data
//! scheduling "could decrease the energy required to implement the dynamic
//! reconfiguration of the system".
//!
//! # Example
//!
//! ```
//! use lpmem_energy::Technology;
//! use lpmem_sched::{AppSpec, ContextSpec, SchedPlatform};
//!
//! let app = AppSpec::with_iterations(
//!     vec![("coef", 512), ("frame", 4096)],
//!     vec![ContextSpec::new(64, vec![(0, 5_000, 0), (1, 2_000, 1_000)])],
//!     32,
//! )?;
//! let platform = SchedPlatform::new(&Technology::tech180(), 1 << 10, 8 << 10);
//! let greedy = lpmem_sched::greedy_schedule(&app, &platform);
//! let naive = lpmem_sched::naive_schedule(&app, &platform);
//! let e_greedy = platform.evaluate(&app, &greedy)?.total();
//! let e_naive = platform.evaluate(&app, &naive)?.total();
//! assert!(e_greedy < e_naive);
//! # Ok::<(), lpmem_sched::SchedError>(())
//! ```

#![warn(missing_docs)]

use lpmem_energy::{Energy, EnergyReport, OffChipModel, SramModel, Technology};

/// Errors from building or evaluating schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// An access references an array index that does not exist.
    UnknownArray {
        /// The offending context.
        context: usize,
        /// The out-of-range array index.
        array: usize,
    },
    /// A schedule's placements exceed a level's capacity in some context.
    OverCapacity {
        /// The context whose placements overflow.
        context: usize,
        /// The level that overflows.
        level: Level,
    },
    /// The application has no contexts or an array has zero size.
    InvalidSpec(&'static str),
    /// The schedule's shape does not match the application.
    ShapeMismatch,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::UnknownArray { context, array } => {
                write!(f, "context {context} references unknown array {array}")
            }
            SchedError::OverCapacity { context, level } => {
                write!(
                    f,
                    "placements exceed {level:?} capacity in context {context}"
                )
            }
            SchedError::InvalidSpec(what) => write!(f, "invalid application spec: {what}"),
            SchedError::ShapeMismatch => write!(f, "schedule shape does not match application"),
        }
    }
}

impl std::error::Error for SchedError {}

/// A storage level for an array during one context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Small, cheapest on-chip store.
    L0,
    /// Larger on-chip store.
    L1,
    /// External memory (no capacity limit, highest energy).
    External,
}

/// One context: its configuration size and the array traffic of its
/// kernels (per loop iteration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSpec {
    /// 32-bit words of configuration loaded when this context starts.
    pub config_words: u64,
    /// `(array index, reads, writes)` for each array the context touches.
    pub accesses: Vec<(usize, u64, u64)>,
}

impl ContextSpec {
    /// Creates a context spec.
    pub fn new(config_words: u64, accesses: Vec<(usize, u64, u64)>) -> Self {
        ContextSpec {
            config_words,
            accesses,
        }
    }
}

/// A validated application: named arrays, the context sequence, and how
/// many loop iterations the sequence repeats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    arrays: Vec<(String, u64)>,
    contexts: Vec<ContextSpec>,
    iterations: u64,
}

impl AppSpec {
    /// Builds a single-iteration application.
    ///
    /// # Errors
    ///
    /// See [`AppSpec::with_iterations`].
    pub fn new(arrays: Vec<(&str, u64)>, contexts: Vec<ContextSpec>) -> Result<Self, SchedError> {
        Self::with_iterations(arrays, contexts, 1)
    }

    /// Builds and validates an application whose context sequence repeats
    /// `iterations` times.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSpec`] for empty specs, zero-sized
    /// arrays, or zero iterations, and [`SchedError::UnknownArray`] for
    /// out-of-range accesses.
    pub fn with_iterations(
        arrays: Vec<(&str, u64)>,
        contexts: Vec<ContextSpec>,
        iterations: u64,
    ) -> Result<Self, SchedError> {
        if contexts.is_empty() {
            return Err(SchedError::InvalidSpec(
                "application needs at least one context",
            ));
        }
        if iterations == 0 {
            return Err(SchedError::InvalidSpec("iterations must be at least one"));
        }
        if arrays.iter().any(|&(_, b)| b == 0) {
            return Err(SchedError::InvalidSpec("arrays must have non-zero size"));
        }
        for (ci, ctx) in contexts.iter().enumerate() {
            for &(ai, _, _) in &ctx.accesses {
                if ai >= arrays.len() {
                    return Err(SchedError::UnknownArray {
                        context: ci,
                        array: ai,
                    });
                }
            }
        }
        Ok(AppSpec {
            arrays: arrays.into_iter().map(|(n, b)| (n.to_owned(), b)).collect(),
            contexts,
            iterations,
        })
    }

    /// Number of arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Number of contexts in the sequence.
    pub fn num_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Loop iterations of the context sequence.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Array size in bytes.
    pub fn array_bytes(&self, idx: usize) -> u64 {
        self.arrays[idx].1
    }

    /// Array name.
    pub fn array_name(&self, idx: usize) -> &str {
        &self.arrays[idx].0
    }

    /// The context sequence.
    pub fn contexts(&self) -> &[ContextSpec] {
        &self.contexts
    }

    /// Arrays live (accessed) in context `ci`, ascending.
    pub fn live_in(&self, ci: usize) -> Vec<usize> {
        let mut v: Vec<usize> = self.contexts[ci]
            .accesses
            .iter()
            .map(|&(a, _, _)| a)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// A data schedule: per context, the level of every array, plus the
/// configuration-residency flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `placement[context][array] = level` (arrays not live in a context are
    /// conventionally `External` and cost nothing).
    pub placement: Vec<Vec<Level>>,
    /// `cache_config[context]` — this context's configuration stays resident
    /// in L1 across the loop, so iterations after the first reload it
    /// on-chip. Resident configurations consume L1 capacity in **every**
    /// context.
    pub cache_config: Vec<bool>,
}

/// The two-level platform and its energy model.
#[derive(Debug, Clone)]
pub struct SchedPlatform {
    l0_bytes: u64,
    l1_bytes: u64,
    e_l0_read: Energy,
    e_l0_write: Energy,
    e_l1_read: Energy,
    e_l1_write: Energy,
    e_ext: Energy,
    e_context_word: Energy,
}

impl SchedPlatform {
    /// Builds a platform with the given level capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero or L0 is not smaller than L1.
    pub fn new(tech: &Technology, l0_bytes: u64, l1_bytes: u64) -> Self {
        assert!(l0_bytes > 0 && l1_bytes > 0, "levels must have capacity");
        assert!(l0_bytes < l1_bytes, "L0 must be smaller than L1");
        let sram = SramModel::new(tech);
        let off = OffChipModel::new(tech);
        SchedPlatform {
            l0_bytes,
            l1_bytes,
            e_l0_read: sram.read_energy(l0_bytes),
            e_l0_write: sram.write_energy(l0_bytes),
            e_l1_read: sram.read_energy(l1_bytes),
            e_l1_write: sram.write_energy(l1_bytes),
            e_ext: off.beat_energy(),
            e_context_word: Energy::from_pj(tech.context_word_pj),
        }
    }

    /// L0 capacity in bytes.
    pub fn l0_bytes(&self) -> u64 {
        self.l0_bytes
    }

    /// L1 capacity in bytes.
    pub fn l1_bytes(&self) -> u64 {
        self.l1_bytes
    }

    fn read_energy(&self, level: Level) -> Energy {
        match level {
            Level::L0 => self.e_l0_read,
            Level::L1 => self.e_l1_read,
            Level::External => self.e_ext,
        }
    }

    fn write_energy(&self, level: Level) -> Energy {
        match level {
            Level::L0 => self.e_l0_write,
            Level::L1 => self.e_l1_write,
            Level::External => self.e_ext,
        }
    }

    /// Energy to move `bytes` from `src` to `dst`, word by word.
    fn transfer_energy(&self, bytes: u64, src: Level, dst: Level) -> Energy {
        let words = bytes.div_ceil(4) as f64;
        (self.read_energy(src) + self.write_energy(dst)) * words
    }

    /// L1 bytes permanently consumed by resident configurations.
    fn resident_config_bytes(&self, app: &AppSpec, sched: &Schedule) -> u64 {
        app.contexts()
            .iter()
            .zip(&sched.cache_config)
            .filter(|(_, &cached)| cached)
            .map(|(ctx, _)| ctx.config_words * 4)
            .sum()
    }

    /// Evaluates a schedule, checking capacity constraints.
    ///
    /// Components: `l0.access`, `l1.access`, `ext.access`, `transfer`,
    /// `reconfig`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::ShapeMismatch`] when the schedule's dimensions
    /// differ from the application's and [`SchedError::OverCapacity`] when a
    /// level overflows in some context (counting L1 space held by resident
    /// configurations).
    pub fn evaluate(&self, app: &AppSpec, sched: &Schedule) -> Result<EnergyReport, SchedError> {
        let nc = app.num_contexts();
        let na = app.num_arrays();
        if sched.placement.len() != nc
            || sched.cache_config.len() != nc
            || sched.placement.iter().any(|p| p.len() != na)
        {
            return Err(SchedError::ShapeMismatch);
        }

        let resident = self.resident_config_bytes(app, sched);
        for ci in 0..nc {
            let mut l0 = 0u64;
            let mut l1 = resident;
            for &ai in &app.live_in(ci) {
                match sched.placement[ci][ai] {
                    Level::L0 => l0 += app.array_bytes(ai),
                    Level::L1 => l1 += app.array_bytes(ai),
                    Level::External => {}
                }
            }
            if l0 > self.l0_bytes {
                return Err(SchedError::OverCapacity {
                    context: ci,
                    level: Level::L0,
                });
            }
            if l1 > self.l1_bytes {
                return Err(SchedError::OverCapacity {
                    context: ci,
                    level: Level::L1,
                });
            }
        }

        let iters = app.iterations() as f64;
        let mut report = EnergyReport::new();
        // Kernel accesses (per iteration, scaled by the loop count).
        for (ci, ctx) in app.contexts().iter().enumerate() {
            for &(ai, reads, writes) in &ctx.accesses {
                let level = sched.placement[ci][ai];
                let e = (self.read_energy(level) * reads as f64
                    + self.write_energy(level) * writes as f64)
                    * iters;
                let name = match level {
                    Level::L0 => "l0.access",
                    Level::L1 => "l1.access",
                    Level::External => "ext.access",
                };
                report.add(name, e);
            }
        }
        // Transfers per iteration: arrays arrive from external on first use,
        // migrate when their level changes between consecutive live
        // contexts, and dirty arrays drain back to external at the end of
        // the iteration.
        let mut transfer_once = Energy::ZERO;
        for ai in 0..na {
            let mut prev: Option<Level> = None;
            let mut written = false;
            let bytes = app.array_bytes(ai);
            for ci in 0..nc {
                if !app.live_in(ci).contains(&ai) {
                    continue;
                }
                let here = sched.placement[ci][ai];
                let from = prev.unwrap_or(Level::External);
                if from != here && here != Level::External {
                    transfer_once += self.transfer_energy(bytes, from, here);
                }
                if app.contexts()[ci]
                    .accesses
                    .iter()
                    .any(|&(a, _, w)| a == ai && w > 0)
                {
                    written = true;
                }
                prev = Some(here);
            }
            if written {
                if let Some(last) = prev {
                    if last != Level::External {
                        transfer_once += self.transfer_energy(bytes, last, Level::External);
                    }
                }
            }
        }
        report.add("transfer", transfer_once * iters);
        // Reconfiguration: every iteration loads every context's
        // configuration. A resident configuration is streamed from external
        // once (into L1) and read from L1 thereafter; otherwise every load
        // streams from external.
        for (ci, ctx) in app.contexts().iter().enumerate() {
            let words = ctx.config_words as f64;
            let e = if sched.cache_config[ci] {
                (self.e_ext + self.e_l1_write) * words
                    + (self.e_l1_read + self.e_context_word) * words * iters
            } else {
                (self.e_ext + self.e_context_word) * words * iters
            };
            report.add("reconfig", e);
        }
        Ok(report)
    }
}

/// Benefit-aware greedy scheduler.
///
/// Arrays keep one level for their whole lifetime (which keeps migration
/// traffic at zero and makes capacity accounting conservative). For each
/// array the scheduler computes the *net* energy benefit of each on-chip
/// level — access savings versus external, minus the staging transfer in
/// and the dirty drain out — and packs positive-benefit arrays into L0,
/// then L1, densest (benefit per byte) first. Leftover L1 capacity is then
/// spent keeping the most-reloaded configurations resident when that saves
/// energy.
pub fn greedy_schedule(app: &AppSpec, platform: &SchedPlatform) -> Schedule {
    let nc = app.num_contexts();
    let na = app.num_arrays();
    let mut placement = vec![vec![Level::External; na]; nc];

    // Whole-application traffic per array (one iteration; the iteration
    // count scales savings and costs identically, so it cancels).
    let mut reads = vec![0u64; na];
    let mut writes = vec![0u64; na];
    for ctx in app.contexts() {
        for &(ai, r, w) in &ctx.accesses {
            reads[ai] += r;
            writes[ai] += w;
        }
    }
    // Net benefit of placing array `ai` at `level` for its whole lifetime.
    let benefit = |ai: usize, level: Level| -> f64 {
        let bytes = app.array_bytes(ai);
        let saving = (platform.e_ext - platform.read_energy(level)) * reads[ai] as f64
            + (platform.e_ext - platform.write_energy(level)) * writes[ai] as f64;
        let mut cost = platform.transfer_energy(bytes, Level::External, level);
        if writes[ai] > 0 {
            cost += platform.transfer_energy(bytes, level, Level::External);
        }
        (saving - cost).as_pj()
    };

    let mut order: Vec<usize> = (0..na).filter(|&ai| reads[ai] + writes[ai] > 0).collect();
    order.sort_by(|&a, &b| {
        let da = benefit(a, Level::L0) / app.array_bytes(a) as f64;
        let db = benefit(b, Level::L0) / app.array_bytes(b) as f64;
        db.partial_cmp(&da)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Capacity is per context: an array occupies a level only while live.
    let live_contexts: Vec<Vec<usize>> = (0..na)
        .map(|ai| {
            (0..nc)
                .filter(|&ci| app.live_in(ci).contains(&ai))
                .collect()
        })
        .collect();
    let mut l0_used = vec![0u64; nc];
    let mut l1_used = vec![0u64; nc];
    for ai in order {
        let bytes = app.array_bytes(ai);
        let fits =
            |used: &[u64], cap: u64| live_contexts[ai].iter().all(|&ci| used[ci] + bytes <= cap);
        let level = if fits(&l0_used, platform.l0_bytes) && benefit(ai, Level::L0) > 0.0 {
            for &ci in &live_contexts[ai] {
                l0_used[ci] += bytes;
            }
            Level::L0
        } else if fits(&l1_used, platform.l1_bytes) && benefit(ai, Level::L1) > 0.0 {
            for &ci in &live_contexts[ai] {
                l1_used[ci] += bytes;
            }
            Level::L1
        } else {
            Level::External
        };
        if level != Level::External {
            for &ci in &live_contexts[ai] {
                placement[ci][ai] = level;
            }
        }
    }

    // Configuration residency: resident configs occupy L1 in every context,
    // so the budget is the minimum slack across contexts. Cache the
    // configurations with the best savings-per-byte first.
    let mut cache_config = vec![false; nc];
    if app.iterations() > 1 {
        let mut budget = l1_used
            .iter()
            .map(|&u| platform.l1_bytes - u)
            .min()
            .unwrap_or(0);
        // Savings of caching context ci's config:
        //   iters·e_ext  ->  (e_ext + e_l1_write) + iters·e_l1_read
        let iters = app.iterations() as f64;
        let mut candidates: Vec<(usize, f64, u64)> = app
            .contexts()
            .iter()
            .enumerate()
            .filter(|(_, ctx)| ctx.config_words > 0)
            .map(|(ci, ctx)| {
                let words = ctx.config_words as f64;
                let cold = platform.e_ext * words * iters;
                let cached = (platform.e_ext + platform.e_l1_write) * words
                    + platform.e_l1_read * words * iters;
                (ci, (cold - cached).as_pj(), ctx.config_words * 4)
            })
            .filter(|&(_, saving, _)| saving > 0.0)
            .collect();
        candidates.sort_by(|a, b| {
            let da = a.1 / a.2 as f64;
            let db = b.1 / b.2 as f64;
            db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
        });
        for (ci, _, bytes) in candidates {
            if bytes <= budget {
                cache_config[ci] = true;
                budget -= bytes;
            }
        }
    }
    Schedule {
        placement,
        cache_config,
    }
}

/// Naive baseline: every live array goes to L1 in declaration order until
/// L1 fills, the rest stay external; configurations always stream from
/// external memory.
pub fn naive_schedule(app: &AppSpec, platform: &SchedPlatform) -> Schedule {
    let nc = app.num_contexts();
    let na = app.num_arrays();
    let mut placement = vec![vec![Level::External; na]; nc];
    for (ci, row) in placement.iter_mut().enumerate() {
        let mut l1_free = platform.l1_bytes;
        for ai in app.live_in(ci) {
            let bytes = app.array_bytes(ai);
            if bytes <= l1_free {
                row[ai] = Level::L1;
                l1_free -= bytes;
            }
        }
    }
    Schedule {
        placement,
        cache_config: vec![false; nc],
    }
}

/// External-only baseline (no on-chip data at all).
pub fn external_only_schedule(app: &AppSpec) -> Schedule {
    Schedule {
        placement: vec![vec![Level::External; app.num_arrays()]; app.num_contexts()],
        cache_config: vec![false; app.num_contexts()],
    }
}

/// Exhaustively enumerates placements (no configuration caching) and
/// returns the cheapest valid schedule. Exponential — only for validating
/// the greedy scheduler on tiny instances.
///
/// # Panics
///
/// Panics if `arrays × contexts > 16` (the search would explode).
pub fn exhaustive_schedule(app: &AppSpec, platform: &SchedPlatform) -> Schedule {
    let nc = app.num_contexts();
    let na = app.num_arrays();
    let slots = nc * na;
    assert!(
        slots <= 16,
        "exhaustive search limited to 16 placement slots"
    );
    let levels = [Level::L0, Level::L1, Level::External];
    let mut best: Option<(f64, Schedule)> = None;
    let total = 3usize.pow(slots as u32);
    for code in 0..total {
        let mut c = code;
        let mut placement = vec![vec![Level::External; na]; nc];
        for row in placement.iter_mut() {
            for slot in row.iter_mut() {
                *slot = levels[c % 3];
                c /= 3;
            }
        }
        let sched = Schedule {
            placement,
            cache_config: vec![false; nc],
        };
        if let Ok(report) = platform.evaluate(app, &sched) {
            let e = report.total().as_pj();
            if best.as_ref().map(|(b, _)| e < *b).unwrap_or(true) {
                best = Some((e, sched));
            }
        }
    }
    best.expect("external-only placement is always valid").1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::tech180()
    }

    fn platform() -> SchedPlatform {
        SchedPlatform::new(&tech(), 1 << 10, 8 << 10)
    }

    fn simple_app() -> AppSpec {
        AppSpec::new(
            vec![("coef", 512), ("frame", 4096), ("scratch", 16384)],
            vec![
                ContextSpec::new(128, vec![(0, 10_000, 0), (1, 3_000, 1_000)]),
                ContextSpec::new(128, vec![(1, 2_000, 2_000), (2, 500, 500)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn spec_validation() {
        assert!(AppSpec::new(vec![("a", 0)], vec![ContextSpec::new(0, vec![])]).is_err());
        assert!(AppSpec::new(vec![("a", 4)], vec![]).is_err());
        assert!(
            AppSpec::with_iterations(vec![("a", 4)], vec![ContextSpec::new(0, vec![])], 0).is_err()
        );
        let bad = AppSpec::new(vec![("a", 4)], vec![ContextSpec::new(0, vec![(1, 1, 0)])]);
        assert_eq!(
            bad.unwrap_err(),
            SchedError::UnknownArray {
                context: 0,
                array: 1
            }
        );
    }

    #[test]
    fn live_sets() {
        let app = simple_app();
        assert_eq!(app.live_in(0), vec![0, 1]);
        assert_eq!(app.live_in(1), vec![1, 2]);
        assert_eq!(app.array_name(2), "scratch");
    }

    #[test]
    fn capacity_violations_are_rejected() {
        let app = simple_app();
        let p = platform();
        // scratch (16 KiB) cannot live in L0 (1 KiB).
        let mut sched = external_only_schedule(&app);
        sched.placement[1][2] = Level::L0;
        assert_eq!(
            p.evaluate(&app, &sched).unwrap_err(),
            SchedError::OverCapacity {
                context: 1,
                level: Level::L0
            }
        );
    }

    #[test]
    fn resident_configs_consume_l1_everywhere() {
        // An app whose L1 is exactly full of arrays in context 0: caching
        // any config must overflow.
        let app = AppSpec::with_iterations(
            vec![("big", 8 << 10)],
            vec![ContextSpec::new(64, vec![(0, 100, 0)])],
            8,
        )
        .unwrap();
        let p = platform();
        let sched = Schedule {
            placement: vec![vec![Level::L1]],
            cache_config: vec![true],
        };
        assert_eq!(
            p.evaluate(&app, &sched).unwrap_err(),
            SchedError::OverCapacity {
                context: 0,
                level: Level::L1
            }
        );
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let app = simple_app();
        let p = platform();
        let sched = Schedule {
            placement: vec![vec![Level::External; 3]],
            cache_config: vec![false],
        };
        assert_eq!(
            p.evaluate(&app, &sched).unwrap_err(),
            SchedError::ShapeMismatch
        );
    }

    #[test]
    fn onchip_beats_external_for_hot_arrays() {
        let app = simple_app();
        let p = platform();
        let ext = p.evaluate(&app, &external_only_schedule(&app)).unwrap();
        let greedy = p.evaluate(&app, &greedy_schedule(&app, &p)).unwrap();
        assert!(
            greedy.total() < ext.total() * 0.5,
            "greedy {} ext {}",
            greedy.total(),
            ext.total()
        );
    }

    #[test]
    fn greedy_beats_naive_on_dense_small_arrays() {
        let app = simple_app();
        let p = platform();
        let greedy = p.evaluate(&app, &greedy_schedule(&app, &p)).unwrap();
        let naive = p.evaluate(&app, &naive_schedule(&app, &p)).unwrap();
        assert!(greedy.total() < naive.total());
    }

    #[test]
    fn greedy_respects_capacities() {
        let app = simple_app();
        let p = platform();
        assert!(p.evaluate(&app, &greedy_schedule(&app, &p)).is_ok());
    }

    #[test]
    fn config_caching_pays_off_across_iterations() {
        let app = AppSpec::with_iterations(
            vec![("a", 256)],
            vec![ContextSpec::new(256, vec![(0, 1_000, 0)])],
            64,
        )
        .unwrap();
        let p = platform();
        let cold = Schedule {
            placement: vec![vec![Level::L0]],
            cache_config: vec![false],
        };
        let cached = Schedule {
            placement: vec![vec![Level::L0]],
            cache_config: vec![true],
        };
        let e_cold = p.evaluate(&app, &cold).unwrap().component("reconfig");
        let e_cached = p.evaluate(&app, &cached).unwrap().component("reconfig");
        assert!(
            e_cached < e_cold * 0.2,
            "cached {e_cached} vs cold {e_cold}"
        );
        // And greedy should discover it.
        let greedy = greedy_schedule(&app, &p);
        assert!(greedy.cache_config[0]);
    }

    #[test]
    fn config_caching_not_used_for_single_iteration() {
        let app = simple_app();
        let greedy = greedy_schedule(&app, &platform());
        assert!(greedy.cache_config.iter().all(|&c| !c));
    }

    #[test]
    fn transfer_energy_charged_on_migration() {
        let app = AppSpec::new(
            vec![("buf", 1024)],
            vec![
                ContextSpec::new(0, vec![(0, 100, 100)]),
                ContextSpec::new(0, vec![(0, 100, 100)]),
            ],
        )
        .unwrap();
        let p = platform();
        let stable = Schedule {
            placement: vec![vec![Level::L1], vec![Level::L1]],
            cache_config: vec![false, false],
        };
        let migrating = Schedule {
            placement: vec![vec![Level::L1], vec![Level::L0]],
            cache_config: vec![false, false],
        };
        let e_stable = p.evaluate(&app, &stable).unwrap();
        let e_migrating = p.evaluate(&app, &migrating).unwrap();
        assert!(e_migrating.component("transfer") > e_stable.component("transfer"));
    }

    #[test]
    fn dirty_arrays_drain_to_external() {
        let read_only = AppSpec::new(
            vec![("buf", 1024)],
            vec![ContextSpec::new(0, vec![(0, 100, 0)])],
        )
        .unwrap();
        let written = AppSpec::new(
            vec![("buf", 1024)],
            vec![ContextSpec::new(0, vec![(0, 100, 1)])],
        )
        .unwrap();
        let p = platform();
        let sched = Schedule {
            placement: vec![vec![Level::L1]],
            cache_config: vec![false],
        };
        let e_ro = p
            .evaluate(&read_only, &sched)
            .unwrap()
            .component("transfer");
        let e_rw = p.evaluate(&written, &sched).unwrap().component("transfer");
        assert!(e_rw > e_ro);
    }

    #[test]
    fn greedy_matches_exhaustive_on_tiny_instance() {
        let app = AppSpec::new(
            vec![("a", 512), ("b", 2048)],
            vec![
                ContextSpec::new(0, vec![(0, 5_000, 0), (1, 100, 0)]),
                ContextSpec::new(0, vec![(0, 5_000, 0)]),
            ],
        )
        .unwrap();
        let p = platform();
        let greedy = p
            .evaluate(&app, &greedy_schedule(&app, &p))
            .unwrap()
            .total();
        let best = p
            .evaluate(&app, &exhaustive_schedule(&app, &p))
            .unwrap()
            .total();
        assert!(best <= greedy);
        assert!(
            (greedy.as_pj() - best.as_pj()).abs() < 1e-6,
            "greedy {greedy} best {best}"
        );
    }

    #[test]
    fn reconfig_energy_scales_with_config_words() {
        let small =
            AppSpec::new(vec![("a", 4)], vec![ContextSpec::new(10, vec![(0, 1, 0)])]).unwrap();
        let large = AppSpec::new(
            vec![("a", 4)],
            vec![ContextSpec::new(1000, vec![(0, 1, 0)])],
        )
        .unwrap();
        let p = platform();
        let e_small = p
            .evaluate(&small, &external_only_schedule(&small))
            .unwrap()
            .component("reconfig");
        let e_large = p
            .evaluate(&large, &external_only_schedule(&large))
            .unwrap()
            .component("reconfig");
        assert!(e_large.as_pj() > 50.0 * e_small.as_pj());
    }

    #[test]
    fn access_energy_scales_with_iterations() {
        let mk = |iters| {
            AppSpec::with_iterations(
                vec![("a", 512)],
                vec![ContextSpec::new(0, vec![(0, 1_000, 0)])],
                iters,
            )
            .unwrap()
        };
        let p = platform();
        let sched = Schedule {
            placement: vec![vec![Level::L0]],
            cache_config: vec![false],
        };
        let e1 = p.evaluate(&mk(1), &sched).unwrap().component("l0.access");
        let e4 = p.evaluate(&mk(4), &sched).unwrap().component("l0.access");
        assert!((e4.as_pj() - 4.0 * e1.as_pj()).abs() < 1e-9);
    }
}
