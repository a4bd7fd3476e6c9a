//! Instruction set definition: opcodes, registers, and the 32-bit
//! encode/decode pair.
//!
//! Encoding layout (all instructions are one 32-bit word):
//!
//! ```text
//! R-type:  [31:26 op][25:22 rd ][21:18 rs1][17:14 rs2][13:0  zero  ]
//! I-type:  [31:26 op][25:22 rd ][21:18 rs1][17:0  imm18 (signed)   ]
//! B-type:  [31:26 op][25:22 rs1][21:18 rs2][17:0  imm18 (words)    ]
//! J-type:  [31:26 op][25:22 rd ][21:0  imm22 (words, signed)       ]
//! ```

/// A register index `r0..r15`; `r0` always reads zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register.
    pub const ZERO: Reg = Reg(0);

    /// Creates a register; returns `None` for indices above 15.
    pub fn new(index: u8) -> Option<Reg> {
        (index < 16).then_some(Reg(index))
    }

    /// The register index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Every TinyRISC opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Opcode {
    // R-type ALU.
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Sll = 5,
    Srl = 6,
    Sra = 7,
    Slt = 8,
    Sltu = 9,
    Mul = 10,
    // I-type ALU.
    Addi = 16,
    Andi = 17,
    Ori = 18,
    Xori = 19,
    Slli = 20,
    Srli = 21,
    Slti = 22,
    Lui = 23,
    // Loads / stores (I-type, offset(rs1)).
    Lw = 32,
    Lh = 33,
    Lb = 34,
    Lbu = 35,
    Lhu = 36,
    Sw = 40,
    Sh = 41,
    Sb = 42,
    // Branches (B-type).
    Beq = 48,
    Bne = 49,
    Blt = 50,
    Bge = 51,
    Bltu = 52,
    Bgeu = 53,
    // Jumps.
    Jal = 56,  // J-type
    Jalr = 57, // I-type
    Halt = 63,
}

impl Opcode {
    /// Decodes the 6-bit opcode field.
    pub fn from_bits(bits: u8) -> Option<Opcode> {
        use Opcode::*;
        Some(match bits {
            0 => Add,
            1 => Sub,
            2 => And,
            3 => Or,
            4 => Xor,
            5 => Sll,
            6 => Srl,
            7 => Sra,
            8 => Slt,
            9 => Sltu,
            10 => Mul,
            16 => Addi,
            17 => Andi,
            18 => Ori,
            19 => Xori,
            20 => Slli,
            21 => Srli,
            22 => Slti,
            23 => Lui,
            32 => Lw,
            33 => Lh,
            34 => Lb,
            35 => Lbu,
            36 => Lhu,
            40 => Sw,
            41 => Sh,
            42 => Sb,
            48 => Beq,
            49 => Bne,
            50 => Blt,
            51 => Bge,
            52 => Bltu,
            53 => Bgeu,
            56 => Jal,
            57 => Jalr,
            63 => Halt,
            _ => return None,
        })
    }
}

/// Range of an 18-bit signed immediate.
pub const IMM18_MIN: i32 = -(1 << 17);
/// Maximum value of an 18-bit signed immediate.
pub const IMM18_MAX: i32 = (1 << 17) - 1;
/// Range of a 22-bit signed immediate.
pub const IMM22_MIN: i32 = -(1 << 21);
/// Maximum value of a 22-bit signed immediate.
pub const IMM22_MAX: i32 = (1 << 21) - 1;

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings are given per variant
pub enum Inst {
    /// R-type: `op rd, rs1, rs2`.
    R {
        op: Opcode,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// I-type: `op rd, rs1, imm` (ALU), `op rd, imm(rs1)` (memory), or
    /// `jalr rd, rs1, imm`.
    I {
        op: Opcode,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// B-type: `op rs1, rs2, word_offset` (PC-relative, in words, from the
    /// instruction after the branch).
    B {
        op: Opcode,
        rs1: Reg,
        rs2: Reg,
        imm: i32,
    },
    /// J-type: `jal rd, word_offset`.
    J { op: Opcode, rd: Reg, imm: i32 },
    /// `halt`.
    Halt,
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

impl Inst {
    /// Encodes the instruction into its 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if an immediate is out of range for its field; the assembler
    /// validates ranges before constructing `Inst` values.
    pub fn encode(self) -> u32 {
        match self {
            Inst::R { op, rd, rs1, rs2 } => {
                (op as u32) << 26
                    | (rd.index() as u32) << 22
                    | (rs1.index() as u32) << 18
                    | (rs2.index() as u32) << 14
            }
            Inst::I { op, rd, rs1, imm } => {
                assert!(
                    (IMM18_MIN..=IMM18_MAX).contains(&imm),
                    "imm18 out of range: {imm}"
                );
                (op as u32) << 26
                    | (rd.index() as u32) << 22
                    | (rs1.index() as u32) << 18
                    | (imm as u32 & 0x3_FFFF)
            }
            Inst::B { op, rs1, rs2, imm } => {
                assert!(
                    (IMM18_MIN..=IMM18_MAX).contains(&imm),
                    "imm18 out of range: {imm}"
                );
                (op as u32) << 26
                    | (rs1.index() as u32) << 22
                    | (rs2.index() as u32) << 18
                    | (imm as u32 & 0x3_FFFF)
            }
            Inst::J { op, rd, imm } => {
                assert!(
                    (IMM22_MIN..=IMM22_MAX).contains(&imm),
                    "imm22 out of range: {imm}"
                );
                (op as u32) << 26 | (rd.index() as u32) << 22 | (imm as u32 & 0x3F_FFFF)
            }
            Inst::Halt => (Opcode::Halt as u32) << 26,
        }
    }

    /// Decodes a 32-bit word; returns `None` for an unknown opcode.
    pub fn decode(word: u32) -> Option<Inst> {
        let op = Opcode::from_bits((word >> 26) as u8)?;
        let rd = Reg(((word >> 22) & 0xF) as u8);
        let rs1 = Reg(((word >> 18) & 0xF) as u8);
        let rs2 = Reg(((word >> 14) & 0xF) as u8);
        use Opcode::*;
        Some(match op {
            Add | Sub | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu | Mul => {
                Inst::R { op, rd, rs1, rs2 }
            }
            // `lui` does not read rs1; normalize the don't-care field so
            // decode yields the canonical encoding.
            Lui => Inst::I {
                op,
                rd,
                rs1: Reg(0),
                imm: sext(word & 0x3_FFFF, 18),
            },
            Addi | Andi | Ori | Xori | Slli | Srli | Slti | Lw | Lh | Lb | Lbu | Lhu | Sw | Sh
            | Sb | Jalr => Inst::I {
                op,
                rd,
                rs1,
                imm: sext(word & 0x3_FFFF, 18),
            },
            Beq | Bne | Blt | Bge | Bltu | Bgeu => Inst::B {
                op,
                rs1: rd,
                rs2: rs1,
                imm: sext(word & 0x3_FFFF, 18),
            },
            Jal => Inst::J {
                op,
                rd,
                imm: sext(word & 0x3F_FFFF, 22),
            },
            Halt => Inst::Halt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i).unwrap()
    }

    #[test]
    fn reg_bounds() {
        assert!(Reg::new(15).is_some());
        assert!(Reg::new(16).is_none());
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(r(7).to_string(), "r7");
    }

    #[test]
    fn sign_extension() {
        assert_eq!(sext(0x3_FFFF, 18), -1);
        assert_eq!(sext(0x2_0000, 18), IMM18_MIN);
        assert_eq!(sext(0x1_FFFF, 18), IMM18_MAX);
        assert_eq!(sext(5, 18), 5);
    }

    #[test]
    fn encode_decode_roundtrip_r() {
        let i = Inst::R {
            op: Opcode::Mul,
            rd: r(3),
            rs1: r(4),
            rs2: r(5),
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
    }

    #[test]
    fn encode_decode_roundtrip_i_negative_imm() {
        let i = Inst::I {
            op: Opcode::Addi,
            rd: r(1),
            rs1: r(2),
            imm: -42,
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
    }

    #[test]
    fn encode_decode_roundtrip_branch() {
        let i = Inst::B {
            op: Opcode::Bne,
            rs1: r(9),
            rs2: r(10),
            imm: -100,
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
    }

    #[test]
    fn encode_decode_roundtrip_jal() {
        let i = Inst::J {
            op: Opcode::Jal,
            rd: r(15),
            imm: IMM22_MIN,
        };
        assert_eq!(Inst::decode(i.encode()), Some(i));
    }

    #[test]
    fn halt_roundtrip() {
        assert_eq!(Inst::decode(Inst::Halt.encode()), Some(Inst::Halt));
    }

    #[test]
    fn unknown_opcode_decodes_to_none() {
        assert_eq!(Inst::decode(30 << 26), None);
    }

    #[test]
    #[should_panic(expected = "imm18 out of range")]
    fn oversized_imm_panics() {
        let _ = Inst::I {
            op: Opcode::Addi,
            rd: r(1),
            rs1: r(1),
            imm: IMM18_MAX + 1,
        }
        .encode();
    }

    #[test]
    fn every_opcode_roundtrips_through_bits() {
        use Opcode::*;
        for op in [
            Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Addi, Andi, Ori, Xori, Slli,
            Srli, Slti, Lui, Lw, Lh, Lb, Lbu, Lhu, Sw, Sh, Sb, Beq, Bne, Blt, Bge, Bltu, Bgeu, Jal,
            Jalr, Halt,
        ] {
            assert_eq!(Opcode::from_bits(op as u8), Some(op));
        }
    }
}
