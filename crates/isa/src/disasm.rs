//! Disassembler: render decoded instructions back to assembler syntax.
//!
//! The output round-trips through [`crate::assemble`] (modulo labels —
//! branch targets are printed as absolute addresses, which the assembler
//! accepts), which the tests exercise for every opcode.

use std::fmt;

use crate::inst::{Inst, Opcode};

/// A decoded instruction paired with its address, for PC-relative
/// rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    /// The instruction's address.
    pub addr: u32,
    /// The decoded instruction.
    pub inst: Inst,
}

fn mnemonic(op: Opcode) -> &'static str {
    use Opcode::*;
    match op {
        Add => "add",
        Sub => "sub",
        And => "and",
        Or => "or",
        Xor => "xor",
        Sll => "sll",
        Srl => "srl",
        Sra => "sra",
        Slt => "slt",
        Sltu => "sltu",
        Mul => "mul",
        Addi => "addi",
        Andi => "andi",
        Ori => "ori",
        Xori => "xori",
        Slli => "slli",
        Srli => "srli",
        Slti => "slti",
        Lui => "lui",
        Lw => "lw",
        Lh => "lh",
        Lb => "lb",
        Lbu => "lbu",
        Lhu => "lhu",
        Sw => "sw",
        Sh => "sh",
        Sb => "sb",
        Beq => "beq",
        Bne => "bne",
        Blt => "blt",
        Bge => "bge",
        Bltu => "bltu",
        Bgeu => "bgeu",
        Jal => "jal",
        Jalr => "jalr",
        Halt => "halt",
    }
}

impl fmt::Display for Located {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Opcode::*;
        match self.inst {
            Inst::Halt => write!(f, "halt"),
            Inst::R { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", mnemonic(op))
            }
            Inst::I { op, rd, rs1, imm } => match op {
                Lw | Lh | Lb | Lbu | Lhu | Sw | Sh | Sb => {
                    write!(f, "{} {rd}, {imm}({rs1})", mnemonic(op))
                }
                Lui => {
                    // The lui field is raw bits; print them unsigned.
                    write!(f, "lui {rd}, {:#x}", (imm as u32) & 0x3_FFFF)
                }
                _ => write!(f, "{} {rd}, {rs1}, {imm}", mnemonic(op)),
            },
            Inst::B { op, rs1, rs2, imm } => {
                let target = self.addr.wrapping_add(4).wrapping_add((imm as u32) << 2);
                write!(f, "{} {rs1}, {rs2}, {target:#x}", mnemonic(op))
            }
            Inst::J { rd, imm, .. } => {
                let target = self.addr.wrapping_add(4).wrapping_add((imm as u32) << 2);
                write!(f, "jal {rd}, {target:#x}")
            }
        }
    }
}

/// Disassembles a word at an address; returns `None` for undecodable
/// words (data mixed into text).
pub fn disassemble_word(addr: u32, word: u32) -> Option<String> {
    Inst::decode(word).map(|inst| Located { addr, inst }.to_string())
}

/// Disassembles a contiguous text image starting at `base`. Undecodable
/// words are rendered as `.word 0x…`.
pub fn disassemble(base: u32, words: &[u32]) -> Vec<String> {
    words
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let addr = base + 4 * i as u32;
            disassemble_word(addr, w).unwrap_or_else(|| format!(".word {w:#010x}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::inst::Reg;
    use lpmem_util::Props;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn renders_every_format() {
        let cases = [
            (
                Inst::R {
                    op: Opcode::Mul,
                    rd: r(3),
                    rs1: r(4),
                    rs2: r(5),
                },
                "mul r3, r4, r5",
            ),
            (
                Inst::I {
                    op: Opcode::Addi,
                    rd: r(1),
                    rs1: r(2),
                    imm: -7,
                },
                "addi r1, r2, -7",
            ),
            (
                Inst::I {
                    op: Opcode::Lw,
                    rd: r(6),
                    rs1: r(7),
                    imm: 16,
                },
                "lw r6, 16(r7)",
            ),
            (
                Inst::I {
                    op: Opcode::Sw,
                    rd: r(6),
                    rs1: r(7),
                    imm: 0,
                },
                "sw r6, 0(r7)",
            ),
            (Inst::Halt, "halt"),
        ];
        for (inst, expect) in cases {
            assert_eq!(Located { addr: 0, inst }.to_string(), expect);
        }
    }

    #[test]
    fn branch_targets_are_absolute() {
        // bne at 0x8 with offset -2 words targets 0x8 + 4 - 8 = 0x4.
        let inst = Inst::B {
            op: Opcode::Bne,
            rs1: r(1),
            rs2: r(0),
            imm: -2,
        };
        assert_eq!(Located { addr: 8, inst }.to_string(), "bne r1, r0, 0x4");
    }

    #[test]
    fn undecodable_becomes_word_directive() {
        let lines = disassemble(0, &[Inst::Halt.encode(), 0x7800_0000]);
        assert_eq!(lines[0], "halt");
        assert_eq!(lines[1], ".word 0x78000000");
    }

    #[test]
    fn kernel_text_disassembles_fully() {
        // Every word of every kernel's text section must disassemble (the
        // kernels keep data out of .text).
        for &kernel in &crate::Kernel::ALL {
            let program = kernel.program(4, 1).unwrap();
            let words = program.text_words();
            for (i, &w) in words.iter().enumerate() {
                assert!(
                    disassemble_word(4 * i as u32, w).is_some(),
                    "{}: word {i} ({w:#010x}) undecodable",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn disassembly_reassembles_to_identical_words() {
        let program = crate::Kernel::Fir.program(8, 2).unwrap();
        let words = program.text_words();
        let source: String = disassemble(0, &words)
            .into_iter()
            .map(|l| format!("    {l}\n"))
            .collect();
        let reassembled = assemble(&source).expect("disassembly must reassemble");
        assert_eq!(reassembled.text_words(), words);
    }

    /// The shrunk counterexamples from the retired proptest regression
    /// corpus (`proptest-regressions/disasm.txt`), replayed explicitly:
    /// proptest was removed in PR 1, which silently stopped these words
    /// from ever being re-checked.
    ///
    /// * `1` — `add r0, r0, r0` with a set don't-care bit: the roundtrip
    ///   must land on the canonical encoding `0`, not the raw word.
    /// * `0xc86c0000` — a `blt` whose raw immediate field is zero.
    /// * `0x5c040000` — a `lui`, whose immediate prints as raw bits.
    #[test]
    fn regression_corpus_words_roundtrip_canonically() {
        for word in [1u32, 0xc86c_0000, 0x5c04_0000] {
            let inst = Inst::decode(word).expect("historical words decode");
            let text = disassemble_word(0, word).expect("decodable");
            let program = assemble(&text).expect("disassembly must parse");
            assert_eq!(
                program.text_words(),
                vec![inst.encode()],
                "word {word:#010x} ({text}) did not roundtrip"
            );
        }
    }

    /// Negative branch/jump offsets: the disassembler's printed target and
    /// the machine's taken-branch target both come from
    /// `pc.wrapping_add(4).wrapping_add((imm as u32) << 2)`; pin the
    /// agreement with asm → disasm → asm roundtrips over backward control
    /// flow, plus an execution check that the printed target is where the
    /// machine actually lands.
    #[test]
    fn negative_offsets_roundtrip_and_match_execution() {
        // A backward branch and a backward jal, written with labels.
        let src = r#"
                addi r1, r0, 2
            loop:
                addi r2, r2, 1
                addi r1, r1, -1
                bne  r1, r0, loop
                jal  r3, fwd
            back:
                addi r4, r4, 7
                halt
            fwd:
                jal  r5, back
        "#;
        let program = assemble(src).expect("assembles");
        let words = program.text_words();

        // The branch at 0xc must print its backward target 0x4, and the
        // jal at 0x1c its backward target 0x14.
        let bne = disassemble_word(0xc, words[3]).expect("decodable");
        assert_eq!(bne, "bne r1, r0, 0x4");
        assert!(
            matches!(Inst::decode(words[3]), Some(Inst::B { imm: -3, .. })),
            "backward branch encodes a negative immediate"
        );
        let jal_back = disassemble_word(0x1c, words[7]).expect("decodable");
        assert_eq!(jal_back, "jal r5, 0x14");
        assert!(
            matches!(Inst::decode(words[7]), Some(Inst::J { imm: -3, .. })),
            "backward jal encodes a negative immediate"
        );

        // Full-text roundtrip: disassembly (absolute targets) reassembles
        // to the identical words.
        let source: String = disassemble(0, &words)
            .into_iter()
            .map(|l| format!("    {l}\n"))
            .collect();
        let reassembled = assemble(&source).expect("disassembly must reassemble");
        assert_eq!(reassembled.text_words(), words);

        // Execution agrees with the printed targets: the loop runs twice
        // and the jal pair executes the `back` block.
        let mut m = crate::Machine::new(&program);
        m.run(1_000).expect("halts");
        assert_eq!(m.reg(r(2)), 2, "backward branch looped exactly twice");
        assert_eq!(m.reg(r(4)), 7, "backward jal reached the back block");
        assert_eq!(m.reg(r(3)), 0x14, "forward jal linked past the branch");
        assert_eq!(m.reg(r(5)), 0x20, "backward jal linked its successor");
    }

    /// Any decodable word disassembles to text that reassembles to its
    /// *canonical* encoding (the decoder ignores don't-care bits, so
    /// the roundtrip is exact modulo re-encoding the decoded form).
    #[test]
    fn display_roundtrips_through_assembler() {
        Props::new("disassembly roundtrips through the assembler")
            .cases(256)
            .run(|rng| {
                let word = rng.next_u32();
                if let Some(inst) = Inst::decode(word) {
                    let text = disassemble_word(0, word).expect("decodable");
                    let program = assemble(&text).expect("disassembly must parse");
                    assert_eq!(program.text_words(), vec![inst.encode()]);
                }
            });
    }
}
