//! TinyRISC: a 32-bit load/store ISA, assembler, trace-emitting
//! interpreter, and a suite of embedded benchmark kernels.
//!
//! The DATE 2003 Session 1B evaluations ran embedded applications on ARM7,
//! Lx-ST200, and SimpleScalar toolchains that are unavailable here. TinyRISC
//! rebuilds that substrate: an in-order 32-bit core whose execution emits the
//! instruction-fetch and data-access streams the optimizations consume. The
//! [`kernels`] module ships MediaBench-class workloads (matmul, FIR, DCT,
//! histogram, CRC-32, sort, string search, RLE) written in TinyRISC assembly
//! and checked against Rust reference implementations.
//!
//! # Architecture
//!
//! * 16 general registers `r0..r15`, with `r0` hard-wired to zero.
//! * Little-endian unified memory (instructions and data).
//! * Three instruction formats (R, I with an 18-bit signed immediate, and
//!   J with a 22-bit signed word offset); every instruction is one 32-bit
//!   word.
//!
//! # Example
//!
//! ```
//! use lpmem_isa::{assemble, Machine};
//!
//! let program = assemble(
//!     r#"
//!     .text
//!         li   r1, 6
//!         li   r2, 7
//!         mul  r3, r1, r2
//!         sw   r3, 0x100(r0)
//!         halt
//!     "#,
//! )?;
//! let mut m = Machine::new(&program);
//! let run = m.run(1_000)?;
//! assert_eq!(m.mem().read_u32(0x100), 42);
//! assert!(run.trace.len() > 0);
//! # Ok::<(), lpmem_isa::IsaError>(())
//! ```

#![warn(missing_docs)]

pub mod asm;
mod compile;
pub mod disasm;
mod exec;
pub mod inst;
pub mod kernels;
pub mod machine;
mod uop;

pub use asm::{assemble, Program};
pub use disasm::{disassemble, disassemble_word};
pub use inst::{Inst, Opcode, Reg};
pub use kernels::{Kernel, KernelRun};
pub use machine::{Backend, Machine, RunResult};

/// Errors from assembling or executing TinyRISC programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IsaError {
    /// Assembly-time error with line number and message.
    Asm {
        /// 1-based source line.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// The machine decoded an invalid instruction word.
    IllegalInstruction {
        /// Program counter of the bad word.
        pc: u32,
        /// The undecodable word.
        word: u32,
    },
    /// The machine ran for the full step budget without halting.
    StepLimit {
        /// The exhausted budget.
        steps: u64,
    },
    /// A kernel cannot run at the requested scale.
    Scale {
        /// The kernel's name.
        kernel: &'static str,
        /// The rejected scale.
        scale: u32,
        /// Why the scale does not fit.
        msg: String,
    },
}

impl std::fmt::Display for IsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsaError::Asm { line, msg } => write!(f, "assembly error at line {line}: {msg}"),
            IsaError::IllegalInstruction { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc:#x}")
            }
            IsaError::StepLimit { steps } => {
                write!(f, "program did not halt within {steps} steps")
            }
            IsaError::Scale { kernel, scale, msg } => {
                write!(f, "{kernel} cannot run at scale {scale}: {msg}")
            }
        }
    }
}

impl std::error::Error for IsaError {}
