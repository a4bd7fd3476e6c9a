//! Embedded benchmark kernels written in TinyRISC assembly.
//!
//! These substitute for the MediaBench/Ptolemy workloads of the DATE 2003
//! evaluations (`DESIGN.md` §4): the same dominant kernel classes — linear
//! algebra, filtering, transforms, table lookups, sorting, searching, and
//! byte-stream coding — with inputs drawn from realistic value ranges so
//! that downstream compressibility studies are non-trivial.
//!
//! Every kernel run is **verified**: the machine's output memory is compared
//! against a Rust reference implementation before the trace is returned.
//!
//! ```
//! use lpmem_isa::Kernel;
//!
//! let run = Kernel::Fir.run(16, 7)?;
//! assert!(run.trace.len() > 100);
//! # Ok::<(), lpmem_isa::IsaError>(())
//! ```

use lpmem_util::Rng;

use lpmem_mem::FlatMemory;
use lpmem_trace::Trace;

use crate::asm::{assemble, Program};
use crate::machine::{Backend, Machine};
use crate::IsaError;

/// Base address of kernel input data.
const IN_BASE: u32 = 0x1_0000;
/// Base address of kernel outputs.
const OUT_BASE: u32 = 0x2_0000;
/// Base address of lookup tables.
const TBL_BASE: u32 = 0x3_0000;
/// Bytes of the input region (`IN_BASE..OUT_BASE`) and of the output
/// region (`OUT_BASE..TBL_BASE`).
const REGION_BYTES: u128 = (OUT_BASE - IN_BASE) as u128;
/// Offset from `OUT_BASE` of the RLE encoder's output-length word: its
/// run pairs must end before it.
const RLE_OUTLEN_OFFSET: u32 = 0x8000;
/// The step budget of every kernel run: generous enough for any kernel at
/// any scale the harnesses use.
pub const MAX_STEPS: u64 = 200_000_000;

/// The kernel suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Dense integer matrix multiply, `N×N` (`scale` = N).
    MatMul,
    /// FIR filter over a synthetic waveform (`scale` = output length).
    Fir,
    /// 8-point integer DCT over pixel blocks (`scale` = number of blocks).
    Dct8,
    /// 256-bin byte histogram (`scale` = input bytes / 16).
    Histogram,
    /// Table-driven CRC-32 (`scale` = input bytes / 16).
    Crc32,
    /// Bubble sort of unsigned words (`scale` = element count).
    BubbleSort,
    /// Naive substring search counting matches (`scale` = text bytes / 16).
    StrSearch,
    /// Run-length encoder over a byte stream (`scale` = input bytes / 16).
    RleEncode,
    /// 3×3 integer convolution over a square image (`scale` = image width).
    Conv2d,
}

impl Kernel {
    /// All kernels, in canonical order.
    pub const ALL: [Kernel; 9] = [
        Kernel::MatMul,
        Kernel::Fir,
        Kernel::Dct8,
        Kernel::Histogram,
        Kernel::Crc32,
        Kernel::BubbleSort,
        Kernel::StrSearch,
        Kernel::RleEncode,
        Kernel::Conv2d,
    ];

    /// Short lowercase name, e.g. `"matmul"`.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::MatMul => "matmul",
            Kernel::Fir => "fir",
            Kernel::Dct8 => "dct8",
            Kernel::Histogram => "histogram",
            Kernel::Crc32 => "crc32",
            Kernel::BubbleSort => "bsort",
            Kernel::StrSearch => "strsearch",
            Kernel::RleEncode => "rle",
            Kernel::Conv2d => "conv2d",
        }
    }

    /// Parses a kernel name (case-insensitive), the inverse of
    /// [`Kernel::name`].
    pub fn parse(s: &str) -> Option<Kernel> {
        let key = s.trim().to_ascii_lowercase();
        Kernel::ALL.into_iter().find(|k| k.name() == key)
    }

    /// The scale used by the experiment harness.
    pub fn default_scale(self) -> u32 {
        match self {
            Kernel::MatMul => 12,
            Kernel::Fir => 96,
            Kernel::Dct8 => 24,
            Kernel::Histogram => 128,
            Kernel::Crc32 => 128,
            Kernel::BubbleSort => 96,
            Kernel::StrSearch => 128,
            Kernel::RleEncode => 128,
            Kernel::Conv2d => 18,
        }
    }

    /// Assembles the kernel at the given `scale` with inputs drawn from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::Scale`] when the kernel cannot run at `scale`:
    /// too few elements for its loops, or data that overruns its region
    /// (inputs from `0x10000`, outputs from `0x20000`, 64 KiB each).
    pub fn program(self, scale: u32, seed: u64) -> Result<Program, IsaError> {
        let src = self
            .check_scale(scale)
            .and_then(|()| self.source(scale, seed))
            .map_err(|msg| IsaError::Scale {
                kernel: self.name(),
                scale,
                msg,
            })?;
        Ok(assemble(&src)
            .unwrap_or_else(|e| panic!("kernel {} failed to assemble: {e}", self.name())))
    }

    /// Checks the layout every seed shares: the smallest scale the
    /// kernel's loops handle, and input and output arrays that each fit
    /// their region, so that no array overruns the next.
    fn check_scale(self, scale: u32) -> Result<(), String> {
        let min = match self {
            Kernel::BubbleSort => 2,
            Kernel::Conv2d => 3,
            _ => 1,
        };
        if scale < min {
            return Err(format!("the smallest scale is {min}"));
        }
        let n = u128::from(scale);
        let (input, output) = match self {
            Kernel::MatMul => (8 * n * n, 4 * n * n),
            Kernel::Fir => (4 * (n + 32), 4 * n),
            Kernel::Dct8 => (32 * n, 32 * n),
            Kernel::Histogram => (16 * n, 1024),
            Kernel::Crc32 => (16 * n, 4),
            Kernel::BubbleSort => (4 * n, 0),
            Kernel::StrSearch => (16 * n + 4, 4),
            // The run pairs depend on the input; `rle_src` checks them.
            Kernel::RleEncode => (16 * n, 0),
            Kernel::Conv2d => (4 * n * n, 4 * (n - 2) * (n - 2)),
        };
        for (what, bytes) in [("input", input), ("output", output)] {
            if bytes > REGION_BYTES {
                return Err(format!(
                    "its {bytes} {what} bytes overrun the {REGION_BYTES}-byte {what} region"
                ));
            }
        }
        Ok(())
    }

    /// Assembles, runs (within [`MAX_STEPS`]), and verifies the kernel,
    /// returning its trace and initial data image.
    ///
    /// # Errors
    ///
    /// Returns [`Kernel::program`]'s scale errors and propagates machine
    /// errors ([`IsaError::StepLimit`], [`IsaError::IllegalInstruction`]).
    ///
    /// # Panics
    ///
    /// Panics if the machine's output disagrees with the Rust reference
    /// implementation — that would be a bug in the kernel or the simulator.
    pub fn run(self, scale: u32, seed: u64) -> Result<KernelRun, IsaError> {
        self.run_with(Backend::Compiled, scale, seed)
    }

    /// [`Kernel::run`] on an explicit [`Backend`] (both produce identical
    /// traces; the interpreter is the differential-testing oracle).
    ///
    /// # Errors
    ///
    /// As for [`Kernel::run`].
    ///
    /// # Panics
    ///
    /// As for [`Kernel::run`].
    pub fn run_with(self, backend: Backend, scale: u32, seed: u64) -> Result<KernelRun, IsaError> {
        let mut machine = Machine::new(&self.program(scale, seed)?);
        let image = machine.mem().clone();
        let result = machine.run_with(backend, MAX_STEPS)?;
        self.verify(scale, seed, &machine);
        Ok(KernelRun {
            kernel: self,
            scale,
            trace: result.trace,
            image,
            steps: result.steps,
        })
    }

    fn source(self, scale: u32, seed: u64) -> Result<String, String> {
        let mut rng = Rng::seed_from_u64(seed ^ (self as u64) << 32);
        Ok(match self {
            Kernel::MatMul => matmul_src(scale, &mut rng),
            Kernel::Fir => fir_src(scale, &mut rng),
            Kernel::Dct8 => dct8_src(scale, &mut rng),
            Kernel::Histogram => histogram_src(scale * 16, &mut rng),
            Kernel::Crc32 => crc32_src(scale * 16, &mut rng),
            Kernel::BubbleSort => bsort_src(scale, &mut rng),
            Kernel::StrSearch => strsearch_src(scale * 16, &mut rng),
            Kernel::RleEncode => rle_src(scale * 16, &mut rng)?,
            Kernel::Conv2d => conv2d_src(scale, &mut rng),
        })
    }

    /// Checks a machine that ran [`Kernel::program`] at `scale` and `seed`
    /// against the Rust reference implementation — the check every
    /// [`Kernel::run`] makes.
    ///
    /// # Panics
    ///
    /// Panics if the machine's output disagrees with the reference.
    fn verify(self, scale: u32, seed: u64, machine: &Machine) {
        let mut rng = Rng::seed_from_u64(seed ^ (self as u64) << 32);
        let mem = machine.mem();
        match self {
            Kernel::MatMul => {
                let n = scale as usize;
                let (a, b) = matmul_inputs(n, &mut rng);
                for i in 0..n {
                    for j in 0..n {
                        let mut acc = 0i32;
                        for k in 0..n {
                            acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
                        }
                        let got = mem.read_u32(OUT_BASE as u64 + 4 * (i * n + j) as u64) as i32;
                        assert_eq!(got, acc, "matmul c[{i}][{j}]");
                    }
                }
            }
            Kernel::Fir => {
                let (x, h, outs) = fir_inputs(scale as usize, &mut rng);
                for n in 0..outs {
                    let mut acc = 0i32;
                    for (t, &coef) in h.iter().enumerate() {
                        acc = acc.wrapping_add(x[n + t].wrapping_mul(coef));
                    }
                    let got = mem.read_u32(OUT_BASE as u64 + 4 * n as u64) as i32;
                    assert_eq!(got, acc, "fir y[{n}]");
                }
            }
            Kernel::Dct8 => {
                let blocks = scale as usize;
                let (pixels, coefs) = dct8_inputs(blocks, &mut rng);
                for b in 0..blocks {
                    for u in 0..8 {
                        let mut acc = 0i32;
                        for x in 0..8 {
                            acc =
                                acc.wrapping_add(pixels[b * 8 + x].wrapping_mul(coefs[u * 8 + x]));
                        }
                        let expect = acc >> 8;
                        let got = mem.read_u32(OUT_BASE as u64 + 4 * (b * 8 + u) as u64) as i32;
                        assert_eq!(got, expect, "dct8 block {b} coef {u}");
                    }
                }
            }
            Kernel::Histogram => {
                let input = byte_input(scale as usize * 16, &mut rng);
                let mut hist = [0u32; 256];
                for &b in &input {
                    hist[b as usize] += 1;
                }
                for (i, &expect) in hist.iter().enumerate() {
                    let got = mem.read_u32(OUT_BASE as u64 + 4 * i as u64);
                    assert_eq!(got, expect, "histogram bin {i}");
                }
            }
            Kernel::Crc32 => {
                let input = byte_input(scale as usize * 16, &mut rng);
                let expect = crc32_reference(&input);
                let got = mem.read_u32(OUT_BASE as u64);
                assert_eq!(got, expect, "crc32");
            }
            Kernel::BubbleSort => {
                let mut input = bsort_input(scale as usize, &mut rng);
                input.sort_unstable();
                for (i, &expect) in input.iter().enumerate() {
                    let got = mem.read_u32(IN_BASE as u64 + 4 * i as u64);
                    assert_eq!(got, expect, "bsort element {i}");
                }
            }
            Kernel::StrSearch => {
                let (text, pat) = strsearch_inputs(scale as usize * 16, &mut rng);
                let expect = text.windows(pat.len()).filter(|w| *w == &pat[..]).count() as u32;
                let got = mem.read_u32(OUT_BASE as u64);
                assert_eq!(got, expect, "strsearch count");
            }
            Kernel::Conv2d => {
                let w = scale as usize;
                let (img, ker) = conv2d_inputs(w, &mut rng);
                for y in 1..w - 1 {
                    for x in 1..w - 1 {
                        let mut acc = 0i32;
                        for ky in 0..3 {
                            for kx in 0..3 {
                                let pix = img[(y + ky - 1) * w + (x + kx - 1)];
                                acc = acc.wrapping_add(pix.wrapping_mul(ker[ky * 3 + kx]));
                            }
                        }
                        let expect = acc >> 4;
                        let idx = (y - 1) * (w - 2) + (x - 1);
                        let got = mem.read_u32(OUT_BASE as u64 + 4 * idx as u64) as i32;
                        assert_eq!(got, expect, "conv2d out[{y}][{x}]");
                    }
                }
            }
            Kernel::RleEncode => {
                let input = rle_input(scale as usize * 16, &mut rng);
                let pairs = rle_reference(&input);
                let got_words = mem.read_u32((OUT_BASE + RLE_OUTLEN_OFFSET) as u64) as usize;
                assert_eq!(got_words, 2 * pairs.len(), "rle output length");
                for (i, &(value, count)) in pairs.iter().enumerate() {
                    let v = mem.read_u32(OUT_BASE as u64 + 8 * i as u64);
                    let c = mem.read_u32(OUT_BASE as u64 + 8 * i as u64 + 4);
                    assert_eq!((v, c), (value as u32, count), "rle pair {i}");
                }
            }
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A verified kernel execution.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Which kernel ran.
    pub kernel: Kernel,
    /// The scale it ran at.
    pub scale: u32,
    /// The complete access trace.
    pub trace: Trace,
    /// The program's data memory before the run: the state a cache
    /// replaying [`KernelRun::trace`] must start from.
    pub image: FlatMemory,
    /// Instructions executed.
    pub steps: u64,
}

// ---------------------------------------------------------------------------
// Input generation (shared between source emission and verification).
// ---------------------------------------------------------------------------

fn matmul_inputs(n: usize, rng: &mut Rng) -> (Vec<i32>, Vec<i32>) {
    let a = (0..n * n).map(|_| rng.gen_range(-100..100)).collect();
    let b = (0..n * n).map(|_| rng.gen_range(-100..100)).collect();
    (a, b)
}

fn fir_inputs(outs: usize, rng: &mut Rng) -> (Vec<i32>, Vec<i32>, usize) {
    let taps = 16;
    let len = outs + taps;
    // A smooth waveform with noise: neighbouring samples correlate, which is
    // what makes differential compression of signal buffers effective.
    let x = (0..len)
        .map(|i| {
            let base = (f64::sin(i as f64 * 0.12) * 2000.0) as i32;
            base + rng.gen_range(-64..64)
        })
        .collect();
    let h = (0..taps).map(|_| rng.gen_range(-32..32)).collect();
    (x, h, outs)
}

fn dct8_inputs(blocks: usize, rng: &mut Rng) -> (Vec<i32>, Vec<i32>) {
    // Pixel-like rows: a ramp plus noise per block.
    let mut pixels = Vec::with_capacity(blocks * 8);
    for _ in 0..blocks {
        let base = rng.gen_range(0..200i32);
        let slope = rng.gen_range(-6..6i32);
        for x in 0..8 {
            let v = (base + slope * x + rng.gen_range(-3..3i32)).clamp(0, 255);
            pixels.push(v);
        }
    }
    // Fixed-point (Q8) 8-point DCT-II basis.
    let mut coefs = Vec::with_capacity(64);
    for u in 0..8 {
        for x in 0..8 {
            let c = (std::f64::consts::PI / 8.0 * (x as f64 + 0.5) * u as f64).cos();
            let s = if u == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            coefs.push((s * c * 256.0).round() as i32);
        }
    }
    (pixels, coefs)
}

fn byte_input(len: usize, rng: &mut Rng) -> Vec<u8> {
    // Skewed byte distribution (text-like).
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.gen_range(0x61..0x7B) // lowercase letters
            } else {
                rng.gen_range(0x00..0xFF)
            }
        })
        .collect()
}

fn bsort_input(len: usize, rng: &mut Rng) -> Vec<u32> {
    (0..len).map(|_| rng.gen_range(0..10_000)).collect()
}

fn strsearch_inputs(len: usize, rng: &mut Rng) -> (Vec<u8>, Vec<u8>) {
    let mut text: Vec<u8> = (0..len).map(|_| rng.gen_range(b'a'..=b'd')).collect();
    let pat = vec![b'a', b'b', b'c', b'a'];
    // Plant a few guaranteed matches.
    for i in 0..len / 64 {
        let at = (i * 61) % (len - pat.len());
        text[at..at + pat.len()].copy_from_slice(&pat);
    }
    (text, pat)
}

fn rle_input(len: usize, rng: &mut Rng) -> Vec<u8> {
    // Runs of repeated bytes (scan-line-like data).
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let value = rng.gen_range(0..16u8) * 16;
        let run = rng.gen_range(1..24usize).min(len - out.len());
        out.extend(std::iter::repeat_n(value, run));
    }
    out
}

fn rle_reference(input: &[u8]) -> Vec<(u8, u32)> {
    let mut pairs = Vec::new();
    let mut i = 0;
    while i < input.len() {
        let v = input[i];
        let mut run = 1u32;
        while i + (run as usize) < input.len() && input[i + run as usize] == v && run < 255 {
            run += 1;
        }
        pairs.push((v, run));
        i += run as usize;
    }
    pairs
}

fn conv2d_inputs(w: usize, rng: &mut Rng) -> (Vec<i32>, Vec<i32>) {
    // Smooth image: a 2D gradient plus noise (pixel-like values).
    let mut img = Vec::with_capacity(w * w);
    for y in 0..w {
        for x in 0..w {
            let v = ((x * 7 + y * 5) % 200) as i32 + rng.gen_range(-4..4i32);
            img.push(v.clamp(0, 255));
        }
    }
    let ker = (0..9).map(|_| rng.gen_range(-8..8i32)).collect();
    (img, ker)
}

fn crc32_reference(data: &[u8]) -> u32 {
    let table = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    table
}

// ---------------------------------------------------------------------------
// Source emission helpers.
// ---------------------------------------------------------------------------

/// Formats a slice of words as `.word` lines.
fn words(values: impl IntoIterator<Item = u32>) -> String {
    let mut out = String::new();
    let values: Vec<u32> = values.into_iter().collect();
    for chunk in values.chunks(8) {
        out.push_str("    .word ");
        let row: Vec<String> = chunk.iter().map(|v| format!("{:#010x}", v)).collect();
        out.push_str(&row.join(", "));
        out.push('\n');
    }
    out
}

/// Packs bytes little-endian into `.word` lines (padded with zeros).
fn byte_words(bytes: &[u8]) -> String {
    let packed = bytes.chunks(4).map(|c| {
        let mut w = [0u8; 4];
        w[..c.len()].copy_from_slice(c);
        u32::from_le_bytes(w)
    });
    words(packed)
}

fn matmul_src(n: u32, rng: &mut Rng) -> String {
    let (a, b) = matmul_inputs(n as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
a:
{a_words}
b:
{b_words}
    .text
        la   r10, a
        la   r11, b
        la   r12, c
        li   r14, {n}
        li   r1, 0            # i
ilo:    li   r2, 0            # j
jlo:    li   r3, 0            # k
        li   r4, 0            # acc
klo:    mul  r5, r1, r14
        add  r5, r5, r3
        slli r5, r5, 2
        add  r5, r5, r10
        lw   r6, (r5)
        mul  r7, r3, r14
        add  r7, r7, r2
        slli r7, r7, 2
        add  r7, r7, r11
        lw   r8, (r7)
        mul  r9, r6, r8
        add  r4, r4, r9
        addi r3, r3, 1
        blt  r3, r14, klo
        mul  r5, r1, r14
        add  r5, r5, r2
        slli r5, r5, 2
        add  r5, r5, r12
        sw   r4, (r5)
        addi r2, r2, 1
        blt  r2, r14, jlo
        addi r1, r1, 1
        blt  r1, r14, ilo
        halt
    .data {OUT_BASE:#x}
c:  .space {c_bytes}
"#,
        a_words = words(a.iter().map(|&v| v as u32)),
        b_words = words(b.iter().map(|&v| v as u32)),
        c_bytes = 4 * n * n,
    )
}

fn fir_src(outs: u32, rng: &mut Rng) -> String {
    let (x, h, _) = fir_inputs(outs as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
x:
{x_words}
h:
{h_words}
    .text
        la   r10, x
        la   r11, h
        la   r12, y
        li   r13, {outs}
        li   r14, {taps}
        li   r1, 0            # n
nlo:    li   r2, 0            # t
        li   r3, 0            # acc
tlo:    add  r4, r1, r2
        slli r4, r4, 2
        add  r4, r4, r10
        lw   r5, (r4)
        slli r6, r2, 2
        add  r6, r6, r11
        lw   r7, (r6)
        mul  r8, r5, r7
        add  r3, r3, r8
        addi r2, r2, 1
        blt  r2, r14, tlo
        slli r4, r1, 2
        add  r4, r4, r12
        sw   r3, (r4)
        addi r1, r1, 1
        blt  r1, r13, nlo
        halt
    .data {OUT_BASE:#x}
y:  .space {y_bytes}
"#,
        x_words = words(x.iter().map(|&v| v as u32)),
        h_words = words(h.iter().map(|&v| v as u32)),
        taps = h.len(),
        y_bytes = 4 * outs,
    )
}

fn dct8_src(blocks: u32, rng: &mut Rng) -> String {
    let (pixels, coefs) = dct8_inputs(blocks as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
pix:
{pix_words}
    .data {TBL_BASE:#x}
cos:
{cos_words}
    .text
        la   r10, pix
        la   r11, cos
        la   r12, out
        li   r13, {blocks}
        li   r15, 8
        li   r1, 0            # block
blo:    li   r2, 0            # u
ulo:    li   r3, 0            # x
        li   r4, 0            # acc
xlo:    slli r5, r1, 3
        add  r5, r5, r3
        slli r5, r5, 2
        add  r5, r5, r10
        lw   r6, (r5)
        slli r7, r2, 3
        add  r7, r7, r3
        slli r7, r7, 2
        add  r7, r7, r11
        lw   r8, (r7)
        mul  r9, r6, r8
        add  r4, r4, r9
        addi r3, r3, 1
        blt  r3, r15, xlo
        li   r9, 8
        sra  r4, r4, r9       # >> 8 (Q8 fixed point)
        slli r5, r1, 3
        add  r5, r5, r2
        slli r5, r5, 2
        add  r5, r5, r12
        sw   r4, (r5)
        addi r2, r2, 1
        blt  r2, r15, ulo
        addi r1, r1, 1
        blt  r1, r13, blo
        halt
    .data {OUT_BASE:#x}
out: .space {out_bytes}
"#,
        pix_words = words(pixels.iter().map(|&v| v as u32)),
        cos_words = words(coefs.iter().map(|&v| v as u32)),
        out_bytes = 4 * blocks * 8,
    )
}

fn histogram_src(len: u32, rng: &mut Rng) -> String {
    let input = byte_input(len as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
inp:
{in_words}
    .text
        la   r10, inp
        la   r11, hist
        li   r13, {len}
        li   r1, 0
lo:     add  r2, r1, r10
        lbu  r3, (r2)
        slli r4, r3, 2
        add  r4, r4, r11
        lw   r5, (r4)
        addi r5, r5, 1
        sw   r5, (r4)
        addi r1, r1, 1
        blt  r1, r13, lo
        halt
    .data {OUT_BASE:#x}
hist: .space 1024
"#,
        in_words = byte_words(&input),
    )
}

fn crc32_src(len: u32, rng: &mut Rng) -> String {
    let input = byte_input(len as usize, rng);
    let table = crc32_table();
    format!(
        r#"
    .data {IN_BASE:#x}
data:
{in_words}
    .data {TBL_BASE:#x}
tbl:
{tbl_words}
    .text
        la   r10, data
        la   r11, tbl
        la   r12, out
        li   r13, {len}
        li   r1, 0
        li   r2, -1           # crc = 0xffffffff
lo:     add  r3, r1, r10
        lbu  r4, (r3)
        xor  r5, r2, r4
        andi r5, r5, 0xff
        slli r5, r5, 2
        add  r5, r5, r11
        lw   r6, (r5)
        srli r7, r2, 8
        xor  r2, r6, r7
        addi r1, r1, 1
        blt  r1, r13, lo
        xori r2, r2, -1
        sw   r2, (r12)
        halt
    .data {OUT_BASE:#x}
out: .space 4
"#,
        in_words = byte_words(&input),
        tbl_words = words(table),
    )
}

fn bsort_src(len: u32, rng: &mut Rng) -> String {
    let input = bsort_input(len as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
arr:
{in_words}
    .text
        la   r10, arr
        li   r13, {len}
        li   r1, 0            # i
olo:    li   r2, 0            # j
        sub  r14, r13, r1
        addi r14, r14, -1     # limit = len - i - 1
ilo:    slli r3, r2, 2
        add  r3, r3, r10
        lw   r4, (r3)
        lw   r5, 4(r3)
        bgeu r5, r4, noswap
        sw   r5, (r3)
        sw   r4, 4(r3)
noswap: addi r2, r2, 1
        blt  r2, r14, ilo
        addi r1, r1, 1
        addi r6, r13, -1
        blt  r1, r6, olo
        halt
"#,
        in_words = words(input),
    )
}

fn strsearch_src(len: u32, rng: &mut Rng) -> String {
    let (text, pat) = strsearch_inputs(len as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
text:
{text_words}
pat:
{pat_words}
    .text
        la   r10, text
        la   r11, pat
        la   r12, out
        li   r13, {len}
        li   r14, {pat_len}
        li   r1, 0            # i
        li   r2, 0            # count
        sub  r9, r13, r14     # last valid start
olo:    blt  r9, r1, done
        li   r3, 0            # j
ilo:    add  r4, r1, r3
        add  r5, r4, r10
        lbu  r6, (r5)
        add  r7, r3, r11
        lbu  r8, (r7)
        bne  r6, r8, miss
        addi r3, r3, 1
        blt  r3, r14, ilo
        addi r2, r2, 1
miss:   addi r1, r1, 1
        j    olo
done:   sw   r2, (r12)
        halt
    .data {OUT_BASE:#x}
out: .space 4
"#,
        text_words = byte_words(&text),
        pat_words = byte_words(&pat),
        pat_len = pat.len(),
    )
}

fn rle_src(len: u32, rng: &mut Rng) -> Result<String, String> {
    let input = rle_input(len as usize, rng);
    let pairs = rle_reference(&input).len();
    let outlen_addr = OUT_BASE + RLE_OUTLEN_OFFSET;
    if 8 * pairs > RLE_OUTLEN_OFFSET as usize {
        return Err(format!(
            "its {pairs} run pairs overrun the output length word at {outlen_addr:#x}"
        ));
    }
    Ok(format!(
        r#"
    .data {IN_BASE:#x}
inp:
{in_words}
    .text
        la   r10, inp
        la   r11, out
        la   r12, outlen
        li   r13, {len}
        li   r1, 0            # i
        li   r6, 0            # output index (words)
olo:    add  r2, r1, r10
        lbu  r3, (r2)         # run value
        li   r4, 1            # run length
rlo:    add  r5, r1, r4
        bge  r5, r13, emit
        add  r7, r5, r10
        lbu  r8, (r7)
        bne  r8, r3, emit
        addi r4, r4, 1
        li   r9, 255
        blt  r4, r9, rlo
emit:   slli r7, r6, 2
        add  r7, r7, r11
        sw   r3, (r7)
        sw   r4, 4(r7)
        addi r6, r6, 2
        add  r1, r1, r4
        blt  r1, r13, olo
        sw   r6, (r12)
        halt
    .data {OUT_BASE:#x}
out: .space {out_bytes}
    .data {outlen_addr:#x}
outlen: .space 4
"#,
        in_words = byte_words(&input),
        out_bytes = 8 * len, // worst case: every byte its own run
    ))
}

fn conv2d_src(w: u32, rng: &mut Rng) -> String {
    let (img, ker) = conv2d_inputs(w as usize, rng);
    format!(
        r#"
    .data {IN_BASE:#x}
img:
{img_words}
    .data {TBL_BASE:#x}
ker:
{ker_words}
    .text
        la   r10, img
        la   r11, ker
        la   r12, out
        li   r13, {w}
        li   r1, 1            # y
ylo:    li   r2, 1            # x
xlo:    li   r4, 0            # acc
        li   r3, 0            # ky
kylo:   li   r5, 0            # kx
kxlo:   addi r6, r1, -1
        add  r6, r6, r3
        mul  r6, r6, r13
        addi r7, r2, -1
        add  r7, r7, r5
        add  r6, r6, r7
        slli r6, r6, 2
        add  r6, r6, r10
        lw   r8, (r6)
        slli r9, r3, 1
        add  r9, r9, r3       # ky*3
        add  r9, r9, r5
        slli r9, r9, 2
        add  r9, r9, r11
        lw   r14, (r9)
        mul  r8, r8, r14
        add  r4, r4, r8
        addi r5, r5, 1
        li   r15, 3
        blt  r5, r15, kxlo
        addi r3, r3, 1
        blt  r3, r15, kylo
        li   r15, 4
        sra  r4, r4, r15      # >> 4 (fixed point)
        addi r6, r1, -1
        addi r7, r13, -2
        mul  r6, r6, r7
        addi r7, r2, -1
        add  r6, r6, r7
        slli r6, r6, 2
        add  r6, r6, r12
        sw   r4, (r6)
        addi r2, r2, 1
        addi r7, r13, -1
        blt  r2, r7, xlo
        addi r1, r1, 1
        addi r7, r13, -1
        blt  r1, r7, ylo
        halt
    .data {OUT_BASE:#x}
out: .space {out_bytes}
"#,
        img_words = words(img.iter().map(|&v| v as u32)),
        ker_words = words(ker.iter().map(|&v| v as u32)),
        out_bytes = 4 * (w - 2) * (w - 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test runs the kernel at a small scale; `run` panics on any
    // mismatch against the Rust reference, so reaching the assertions below
    // means the kernel is functionally correct.

    #[test]
    fn matmul_verifies() {
        let r = Kernel::MatMul.run(5, 11).unwrap();
        assert!(r.steps > 100);
    }

    #[test]
    fn fir_verifies() {
        let r = Kernel::Fir.run(24, 3).unwrap();
        assert!(r.trace.data_only().len() > 24);
    }

    #[test]
    fn dct8_verifies() {
        Kernel::Dct8.run(4, 5).unwrap();
    }

    #[test]
    fn histogram_verifies() {
        Kernel::Histogram.run(8, 9).unwrap();
    }

    #[test]
    fn crc32_verifies() {
        Kernel::Crc32.run(8, 1).unwrap();
    }

    #[test]
    fn bsort_verifies() {
        Kernel::BubbleSort.run(32, 2).unwrap();
    }

    #[test]
    fn strsearch_verifies() {
        Kernel::StrSearch.run(8, 4).unwrap();
    }

    #[test]
    fn rle_verifies() {
        Kernel::RleEncode.run(8, 6).unwrap();
    }

    #[test]
    fn conv2d_verifies() {
        Kernel::Conv2d.run(8, 3).unwrap();
    }

    #[test]
    fn scales_outside_the_layout_are_errors() {
        for (kernel, scale) in [
            (Kernel::MatMul, 0),
            (Kernel::BubbleSort, 1),
            (Kernel::Conv2d, 2),
            (Kernel::MatMul, 91),
            (Kernel::Fir, 16_353),
            (Kernel::Dct8, 2049),
            (Kernel::Histogram, 4097),
            (Kernel::Crc32, 4097),
            (Kernel::StrSearch, 4096),
            (Kernel::RleEncode, 4097),
            (Kernel::Conv2d, 129),
            (Kernel::MatMul, u32::MAX),
            (Kernel::RleEncode, u32::MAX),
        ] {
            let err = kernel.run(scale, 1).unwrap_err();
            assert!(
                matches!(err, IsaError::Scale { kernel: k, scale: s, .. } if k == kernel.name() && s == scale),
                "{kernel} at {scale}: {err}"
            );
        }
        // The largest scales that fit still run and verify.
        Kernel::MatMul.run(90, 1).unwrap();
        Kernel::Conv2d.run(128, 1).unwrap();
        // RLE's run pairs depend on the input: at 4096 they overrun the
        // output length word although the input fits.
        let err = Kernel::RleEncode.program(4096, 1).unwrap_err().to_string();
        assert!(err.contains("run pairs"), "{err}");
        Kernel::RleEncode.run(2048, 1).unwrap();
    }

    #[test]
    fn crc32_reference_matches_known_vector() {
        // CRC-32 of "123456789" is the classic check value 0xCBF43926.
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = Kernel::Histogram.run(4, 1).unwrap();
        let b = Kernel::Histogram.run(4, 2).unwrap();
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = Kernel::Fir.run(16, 42).unwrap();
        let b = Kernel::Fir.run(16, 42).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn all_kernels_have_distinct_names() {
        let names: std::collections::HashSet<_> = Kernel::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Kernel::ALL.len());
    }

    #[test]
    #[should_panic(expected = "fir")]
    fn verify_rejects_a_machine_that_ran_other_inputs() {
        let mut machine = Machine::new(&Kernel::Fir.program(16, 7).unwrap());
        machine.run(MAX_STEPS).unwrap();
        Kernel::Fir.verify(16, 8, &machine);
    }

    #[test]
    fn rle_reference_compresses_runs() {
        assert_eq!(rle_reference(&[5, 5, 5, 7]), vec![(5, 3), (7, 1)]);
        assert_eq!(rle_reference(&[]), vec![]);
        // Runs cap at 255.
        let long = vec![9u8; 300];
        assert_eq!(rle_reference(&long), vec![(9, 255), (9, 45)]);
    }
}
