//! Two-pass TinyRISC assembler.
//!
//! Syntax overview (see [`assemble`] for a complete example):
//!
//! ```text
//! .text [base]          # code section (default base 0x0)
//! .data [base]          # data section (default base 0x10000)
//! label:                # labels end with ':'
//! .word 1, 2, 0xff      # 32-bit data words
//! .space 64             # zero-filled bytes
//! add  rd, rs1, rs2     # R-type ALU
//! addi rd, rs1, -5      # I-type ALU
//! lw   rd, 8(rs1)       # loads; stores: sw rs, 8(rbase)
//! beq  r1, r2, label    # branches are PC-relative
//! jal  r15, label       # call; j label == jal r0, label
//! li   r1, 0x12345678   # pseudo: expands to lui+ori (or addi)
//! la   r1, buffer       # pseudo: load label address
//! mv   r1, r2           # pseudo: add r1, r2, r0
//! nop / halt
//! # comments start with '#', ';', or '//'
//! ```

use std::collections::HashMap;

use crate::inst::{Inst, Opcode, Reg, IMM18_MAX, IMM18_MIN, IMM22_MAX, IMM22_MIN};
use crate::IsaError;

const DEFAULT_TEXT_BASE: u32 = 0x0;
const DEFAULT_DATA_BASE: u32 = 0x1_0000;

/// A loadable memory image: `(base address, bytes)` segments plus the entry
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    segments: Vec<(u32, Vec<u8>)>,
    entry: u32,
    symbols: HashMap<String, u32>,
}

impl Program {
    /// The `(base, bytes)` segments in assembly order.
    pub fn segments(&self) -> &[(u32, Vec<u8>)] {
        &self.segments
    }

    /// The entry point (base of the first `.text` section).
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Looks up a label's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Total bytes across all segments.
    pub fn size_bytes(&self) -> usize {
        self.segments.iter().map(|(_, d)| d.len()).sum()
    }

    /// The instruction words of the first text segment (for bus-encoding
    /// studies that need the static code image).
    pub fn text_words(&self) -> Vec<u32> {
        match self.segments.first() {
            Some((_, bytes)) => bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            None => Vec::new(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// One parsed source item, sized during pass 1 and emitted during pass 2.
#[derive(Debug, Clone)]
enum Item {
    Inst {
        line: usize,
        mnemonic: String,
        args: Vec<String>,
    },
    Word(Vec<i64>),
    Space(u32),
}

impl Item {
    /// Size in bytes; pseudo-instruction sizes must be decidable here.
    fn size(&self) -> Result<u32, String> {
        Ok(match self {
            Item::Inst { mnemonic, args, .. } => match mnemonic.as_str() {
                "la" => 8,
                "li" => {
                    let v = parse_imm(args.get(1).map(String::as_str).unwrap_or("0"))
                        .unwrap_or(i64::MAX);
                    if (IMM18_MIN as i64..=IMM18_MAX as i64).contains(&v) {
                        4
                    } else {
                        8
                    }
                }
                _ => 4,
            },
            Item::Word(ws) => 4 * ws.len() as u32,
            Item::Space(n) => *n,
        })
    }
}

fn parse_reg(tok: &str) -> Result<Reg, String> {
    let tok = tok.trim();
    if tok == "zero" {
        return Ok(Reg::ZERO);
    }
    let idx = tok
        .strip_prefix('r')
        .and_then(|n| n.parse::<u8>().ok())
        .ok_or_else(|| format!("expected register, found `{tok}`"))?;
    Reg::new(idx).ok_or_else(|| format!("register index out of range: `{tok}`"))
}

fn parse_imm(tok: &str) -> Result<i64, String> {
    let tok = tok.trim();
    let (neg, body) = match tok.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, tok),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse::<i64>()
    }
    .map_err(|_| format!("expected immediate, found `{tok}`"))?;
    Ok(if neg { -value } else { value })
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for pat in ["#", ";", "//"] {
        if let Some(pos) = line.find(pat) {
            end = end.min(pos);
        }
    }
    &line[..end]
}

/// Splits `imm(rN)` into its parts.
fn parse_mem_operand(tok: &str) -> Result<(i64, Reg), String> {
    let open = tok
        .find('(')
        .ok_or_else(|| format!("expected `imm(reg)`, found `{tok}`"))?;
    let close = tok
        .rfind(')')
        .ok_or_else(|| format!("missing `)` in `{tok}`"))?;
    let imm_part = tok[..open].trim();
    let imm = if imm_part.is_empty() {
        0
    } else {
        parse_imm(imm_part)?
    };
    let reg = parse_reg(&tok[open + 1..close])?;
    Ok((imm, reg))
}

fn imm18(v: i64) -> Result<i32, String> {
    if (IMM18_MIN as i64..=IMM18_MAX as i64).contains(&v) {
        Ok(v as i32)
    } else {
        Err(format!("immediate {v} does not fit in 18 signed bits"))
    }
}

/// Re-interprets the low 18 bits of `bits` as the signed imm18 field (used
/// by `lui`, whose field is raw bits rather than an arithmetic value).
fn raw18(bits: u32) -> i32 {
    ((bits << 14) as i32) >> 14
}

/// Assembles TinyRISC source into a [`Program`].
///
/// # Errors
///
/// Returns [`IsaError::Asm`] with a line number for syntax errors, unknown
/// mnemonics, bad registers, out-of-range immediates, duplicate or undefined
/// labels.
///
/// # Examples
///
/// ```
/// let p = lpmem_isa::assemble(
///     r#"
///     .data 0x2000
///     buf: .word 1, 2, 3
///     .text
///         la  r1, buf
///         lw  r2, 4(r1)
///         halt
///     "#,
/// )?;
/// assert_eq!(p.symbol("buf"), Some(0x2000));
/// # Ok::<(), lpmem_isa::IsaError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, IsaError> {
    let err = |line: usize, msg: String| IsaError::Asm { line, msg };

    // Pass 1: tokenize into items, track addresses, collect labels.
    let mut items: Vec<(u32, Section, Item)> = Vec::new();
    let mut symbols: HashMap<String, u32> = HashMap::new();
    let mut section = Section::Text;
    let mut text_pc = DEFAULT_TEXT_BASE;
    let mut data_pc = DEFAULT_DATA_BASE;
    let mut entry = None;

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let mut line = strip_comment(raw).trim();
        // Labels (possibly several) at the start of the line.
        while let Some(colon) = line.find(':') {
            let (label, rest) = line.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break; // not a label; let the instruction parser complain
            }
            let here = match section {
                Section::Text => text_pc,
                Section::Data => data_pc,
            };
            if symbols.insert(label.to_owned(), here).is_some() {
                return Err(err(lineno, format!("duplicate label `{label}`")));
            }
            line = rest[1..].trim();
        }
        if line.is_empty() {
            continue;
        }
        let (head, tail) = match line.split_once(char::is_whitespace) {
            Some((h, t)) => (h, t.trim()),
            None => (line, ""),
        };
        match head {
            ".text" | ".data" => {
                let base = if tail.is_empty() {
                    None
                } else {
                    Some(parse_imm(tail).map_err(|m| err(lineno, m))? as u32)
                };
                if head == ".text" {
                    section = Section::Text;
                    if let Some(b) = base {
                        text_pc = b;
                    }
                    entry.get_or_insert(text_pc);
                } else {
                    section = Section::Data;
                    if let Some(b) = base {
                        data_pc = b;
                    }
                }
            }
            ".word" => {
                let words: Result<Vec<i64>, String> =
                    tail.split(',').map(|t| parse_imm(t.trim())).collect();
                let words = words.map_err(|m| err(lineno, m))?;
                let size = 4 * words.len() as u32;
                let item = Item::Word(words);
                match section {
                    Section::Text => {
                        items.push((text_pc, section, item));
                        text_pc += size;
                    }
                    Section::Data => {
                        items.push((data_pc, section, item));
                        data_pc += size;
                    }
                }
            }
            ".space" => {
                let n = parse_imm(tail).map_err(|m| err(lineno, m))? as u32;
                match section {
                    Section::Text => {
                        items.push((text_pc, section, Item::Space(n)));
                        text_pc += n;
                    }
                    Section::Data => {
                        items.push((data_pc, section, Item::Space(n)));
                        data_pc += n;
                    }
                }
            }
            _ if head.starts_with('.') => {
                return Err(err(lineno, format!("unknown directive `{head}`")));
            }
            _ => {
                if section != Section::Text {
                    return Err(err(lineno, "instructions must be in .text".to_owned()));
                }
                let args: Vec<String> = if tail.is_empty() {
                    Vec::new()
                } else {
                    tail.split(',').map(|a| a.trim().to_owned()).collect()
                };
                let item = Item::Inst {
                    line: lineno,
                    mnemonic: head.to_ascii_lowercase(),
                    args,
                };
                let size = item.size().map_err(|m| err(lineno, m))?;
                items.push((text_pc, section, item));
                text_pc += size;
            }
        }
    }

    // Pass 2: emit bytes.
    let entry = entry.unwrap_or(DEFAULT_TEXT_BASE);
    let mut text: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut data: Vec<(u32, Vec<u8>)> = Vec::new();
    for (addr, section, item) in items {
        let bytes = emit(addr, &item, &symbols)?;
        let out = match section {
            Section::Text => &mut text,
            Section::Data => &mut data,
        };
        // Coalesce contiguous output into one segment.
        match out.last_mut() {
            Some((base, buf)) if *base + buf.len() as u32 == addr => buf.extend(bytes),
            _ => out.push((addr, bytes)),
        }
    }
    let mut segments = text;
    segments.extend(data);
    Ok(Program {
        segments,
        entry,
        symbols,
    })
}

fn emit(addr: u32, item: &Item, symbols: &HashMap<String, u32>) -> Result<Vec<u8>, IsaError> {
    match item {
        Item::Word(ws) => Ok(ws.iter().flat_map(|w| (*w as u32).to_le_bytes()).collect()),
        Item::Space(n) => Ok(vec![0; *n as usize]),
        Item::Inst {
            line,
            mnemonic,
            args,
        } => {
            let insts = lower(addr, mnemonic, args, symbols)
                .map_err(|msg| IsaError::Asm { line: *line, msg })?;
            Ok(insts
                .into_iter()
                .flat_map(|i| i.encode().to_le_bytes())
                .collect())
        }
    }
}

/// Lowers one mnemonic (possibly a pseudo-instruction) to machine
/// instructions.
fn lower(
    addr: u32,
    mnemonic: &str,
    args: &[String],
    symbols: &HashMap<String, u32>,
) -> Result<Vec<Inst>, String> {
    use Opcode::*;

    let need = |n: usize| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!(
                "`{mnemonic}` expects {n} operands, found {}",
                args.len()
            ))
        }
    };
    let reg = |i: usize| parse_reg(&args[i]);
    let imm = |i: usize| parse_imm(&args[i]);
    // A branch/jump target: a label or an absolute address.
    let target = |i: usize| -> Result<u32, String> {
        let tok = args[i].trim();
        if let Some(&a) = symbols.get(tok) {
            Ok(a)
        } else {
            parse_imm(tok)
                .map(|v| v as u32)
                .map_err(|_| format!("undefined label `{tok}`"))
        }
    };
    let branch_off = |t: u32| -> Result<i32, String> {
        // PC arithmetic wraps modulo 2^32, matching the machine.
        let delta = t.wrapping_sub(addr.wrapping_add(4)) as i32 as i64;
        if delta % 4 != 0 {
            return Err(format!("branch target {t:#x} is not word-aligned"));
        }
        let words = delta / 4;
        if (IMM18_MIN as i64..=IMM18_MAX as i64).contains(&words) {
            Ok(words as i32)
        } else {
            Err(format!("branch target {t:#x} out of range"))
        }
    };

    let r_type = |op: Opcode| -> Result<Vec<Inst>, String> {
        need(3)?;
        Ok(vec![Inst::R {
            op,
            rd: reg(0)?,
            rs1: reg(1)?,
            rs2: reg(2)?,
        }])
    };
    let i_type = |op: Opcode| -> Result<Vec<Inst>, String> {
        need(3)?;
        Ok(vec![Inst::I {
            op,
            rd: reg(0)?,
            rs1: reg(1)?,
            imm: imm18(imm(2)?)?,
        }])
    };
    let mem_type = |op: Opcode| -> Result<Vec<Inst>, String> {
        need(2)?;
        let (off, base) = parse_mem_operand(&args[1])?;
        Ok(vec![Inst::I {
            op,
            rd: reg(0)?,
            rs1: base,
            imm: imm18(off)?,
        }])
    };
    let b_type = |op: Opcode| -> Result<Vec<Inst>, String> {
        need(3)?;
        let t = target(2)?;
        Ok(vec![Inst::B {
            op,
            rs1: reg(0)?,
            rs2: reg(1)?,
            imm: branch_off(t)?,
        }])
    };
    // Materialize a 32-bit constant into `rd`.
    let load_const = |rd: Reg, v: i64| -> Vec<Inst> {
        if (IMM18_MIN as i64..=IMM18_MAX as i64).contains(&v) {
            vec![Inst::I {
                op: Addi,
                rd,
                rs1: Reg::ZERO,
                imm: v as i32,
            }]
        } else {
            let bits = v as u32;
            let hi = raw18(bits >> 14);
            let lo = (bits & 0x3FFF) as i32;
            vec![
                Inst::I {
                    op: Lui,
                    rd,
                    rs1: Reg::ZERO,
                    imm: hi,
                },
                Inst::I {
                    op: Ori,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
            ]
        }
    };

    match mnemonic {
        "add" => r_type(Add),
        "sub" => r_type(Sub),
        "and" => r_type(And),
        "or" => r_type(Or),
        "xor" => r_type(Xor),
        "sll" => r_type(Sll),
        "srl" => r_type(Srl),
        "sra" => r_type(Sra),
        "slt" => r_type(Slt),
        "sltu" => r_type(Sltu),
        "mul" => r_type(Mul),
        "addi" => i_type(Addi),
        "andi" => i_type(Andi),
        "ori" => i_type(Ori),
        "xori" => i_type(Xori),
        "slli" => i_type(Slli),
        "srli" => i_type(Srli),
        "slti" => i_type(Slti),
        "lui" => {
            need(2)?;
            Ok(vec![Inst::I {
                op: Lui,
                rd: reg(0)?,
                rs1: Reg::ZERO,
                imm: raw18(imm(1)? as u32),
            }])
        }
        "lw" => mem_type(Lw),
        "lh" => mem_type(Lh),
        "lb" => mem_type(Lb),
        "lbu" => mem_type(Lbu),
        "lhu" => mem_type(Lhu),
        "sw" => mem_type(Sw),
        "sh" => mem_type(Sh),
        "sb" => mem_type(Sb),
        "beq" => b_type(Beq),
        "bne" => b_type(Bne),
        "blt" => b_type(Blt),
        "bge" => b_type(Bge),
        "bltu" => b_type(Bltu),
        "bgeu" => b_type(Bgeu),
        "jal" => {
            need(2)?;
            let t = target(1)?;
            let delta = (t.wrapping_sub(addr.wrapping_add(4)) as i32 as i64) / 4;
            if !(IMM22_MIN as i64..=IMM22_MAX as i64).contains(&delta) {
                return Err(format!("jump target {t:#x} out of range"));
            }
            Ok(vec![Inst::J {
                op: Jal,
                rd: reg(0)?,
                imm: delta as i32,
            }])
        }
        "j" => {
            need(1)?;
            let t = target(0)?;
            let delta = (t.wrapping_sub(addr.wrapping_add(4)) as i32 as i64) / 4;
            if !(IMM22_MIN as i64..=IMM22_MAX as i64).contains(&delta) {
                return Err(format!("jump target {t:#x} out of range"));
            }
            Ok(vec![Inst::J {
                op: Jal,
                rd: Reg::ZERO,
                imm: delta as i32,
            }])
        }
        "jalr" => {
            need(3)?;
            Ok(vec![Inst::I {
                op: Jalr,
                rd: reg(0)?,
                rs1: reg(1)?,
                imm: imm18(imm(2)?)?,
            }])
        }
        "li" => {
            need(2)?;
            Ok(load_const(reg(0)?, imm(1)?))
        }
        "la" => {
            need(2)?;
            let t = target(1)?;
            // Always two instructions so pass-1 sizing stays exact.
            let bits = t;
            let hi = raw18(bits >> 14);
            let lo = (bits & 0x3FFF) as i32;
            let rd = reg(0)?;
            Ok(vec![
                Inst::I {
                    op: Lui,
                    rd,
                    rs1: Reg::ZERO,
                    imm: hi,
                },
                Inst::I {
                    op: Ori,
                    rd,
                    rs1: rd,
                    imm: lo,
                },
            ])
        }
        "mv" => {
            need(2)?;
            Ok(vec![Inst::R {
                op: Add,
                rd: reg(0)?,
                rs1: reg(1)?,
                rs2: Reg::ZERO,
            }])
        }
        "nop" => {
            need(0)?;
            Ok(vec![Inst::R {
                op: Add,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                rs2: Reg::ZERO,
            }])
        }
        "halt" => {
            need(0)?;
            Ok(vec![Inst::Halt])
        }
        _ => Err(format!("unknown mnemonic `{mnemonic}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembles_minimal_program() {
        let p = assemble("halt").unwrap();
        assert_eq!(p.entry(), 0);
        assert_eq!(p.size_bytes(), 4);
        assert_eq!(p.text_words(), vec![Inst::Halt.encode()]);
    }

    #[test]
    fn labels_and_branches_resolve() {
        let p = assemble(
            r#"
            .text
            start:
                addi r1, r0, 3
            loop:
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.symbol("start"), Some(0));
        assert_eq!(p.symbol("loop"), Some(4));
        let words = p.text_words();
        let bne = Inst::decode(words[2]).unwrap();
        // bne at address 8, target 4 -> offset (4 - 12)/4 = -2 words.
        match bne {
            Inst::B {
                op: Opcode::Bne,
                imm,
                ..
            } => assert_eq!(imm, -2),
            other => panic!("expected bne, got {other:?}"),
        }
    }

    #[test]
    fn li_small_is_one_inst_large_is_two() {
        let small = assemble("li r1, 5\nhalt").unwrap();
        assert_eq!(small.text_words().len(), 2);
        let large = assemble("li r1, 0x12345678\nhalt").unwrap();
        assert_eq!(large.text_words().len(), 3);
    }

    #[test]
    fn data_section_with_words() {
        let p = assemble(
            r#"
            .data 0x4000
            tbl: .word 10, -1, 0xffff
            buf: .space 8
            .text
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.symbol("tbl"), Some(0x4000));
        assert_eq!(p.symbol("buf"), Some(0x400c));
        let data_seg = p.segments().iter().find(|(b, _)| *b == 0x4000).unwrap();
        assert_eq!(data_seg.1.len(), 12 + 8);
        assert_eq!(&data_seg.1[0..4], &10u32.to_le_bytes());
        assert_eq!(&data_seg.1[4..8], &(-1i32 as u32).to_le_bytes());
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\na:\nhalt").unwrap_err();
        assert!(matches!(e, IsaError::Asm { line: 2, .. }), "{e}");
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = assemble("beq r0, r0, nowhere").unwrap_err();
        assert!(e.to_string().contains("nowhere"));
    }

    #[test]
    fn unknown_mnemonic_is_an_error() {
        let e = assemble("frobnicate r1, r2").unwrap_err();
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn out_of_range_immediate_is_an_error() {
        let e = assemble("addi r1, r0, 999999").unwrap_err();
        assert!(e.to_string().contains("18 signed bits"));
    }

    #[test]
    fn comments_are_ignored() {
        let p = assemble("# leading\naddi r1, r0, 1 ; trailing\nhalt // also\n").unwrap();
        assert_eq!(p.text_words().len(), 2);
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble("lw r1, 8(r2)\nsw r1, (r3)\nhalt").unwrap();
        let words = p.text_words();
        assert!(matches!(
            Inst::decode(words[0]),
            Some(Inst::I {
                op: Opcode::Lw,
                imm: 8,
                ..
            })
        ));
        assert!(matches!(
            Inst::decode(words[1]),
            Some(Inst::I {
                op: Opcode::Sw,
                imm: 0,
                ..
            })
        ));
    }

    #[test]
    fn la_loads_full_address() {
        let p = assemble(
            r#"
            .data 0x12344
            x: .word 0
            .text
                la r1, x
                halt
            "#,
        )
        .unwrap();
        assert_eq!(p.text_words().len(), 3); // lui + ori + halt
    }

    #[test]
    fn text_segments_coalesce() {
        let p = assemble("addi r1, r0, 1\naddi r2, r0, 2\nhalt").unwrap();
        assert_eq!(p.segments().len(), 1);
    }
}
