//! Functional units: capabilities and the operation repertoire.
//!
//! Paper §2: "Every functional unit can perform floating-point operations,
//! and some of them can also perform either integer/logical operations or
//! max/min computations." §3 adds the asymmetry that complicates compilation:
//! "Only a single unit can perform integer operations, and another unit has
//! circuitry for min/max computations" — *per ALS*. The checker enforces
//! [`FuCaps::supports`] whenever the editor assigns an operation to a unit
//! (paper Figure 10 pops up only the legal menu).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Capability set of one functional unit.
///
/// `float` is always true on the NSC; the flags record the extras that only
/// some units have ("double box" units in the icon of paper Figure 4 are the
/// integer/logical-capable ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuCaps {
    /// Floating-point arithmetic (every NSC unit has this).
    pub float: bool,
    /// Integer and logical operations (one unit per ALS).
    pub int_logic: bool,
    /// Min/max circuitry (another unit per ALS).
    pub min_max: bool,
}

impl FuCaps {
    /// A plain floating-point unit.
    pub const FLOAT: FuCaps = FuCaps { float: true, int_logic: false, min_max: false };
    /// The per-ALS unit that additionally performs integer/logical work.
    pub const FLOAT_INT: FuCaps = FuCaps { float: true, int_logic: true, min_max: false };
    /// The per-ALS unit that additionally has min/max circuitry.
    pub const FLOAT_MINMAX: FuCaps = FuCaps { float: true, int_logic: false, min_max: true };
    /// A singlet's lone unit: the 1988 sizing gives it both extras so that a
    /// singlet remains universally usable (a modelling choice; see
    /// [`AlsKind::unit_caps`](crate::AlsKind::unit_caps)).
    pub const FULL: FuCaps = FuCaps { float: true, int_logic: true, min_max: true };

    /// Whether a unit with these capabilities may execute `op`.
    #[inline]
    pub fn supports(self, op: FuOp) -> bool {
        match op.class() {
            OpClass::Float => self.float,
            OpClass::IntLogic => self.int_logic,
            OpClass::MinMax => self.min_max,
        }
    }

    /// All operations a unit with these capabilities may execute, in menu
    /// order. This is exactly the content of the paper's Figure 10 pop-up.
    pub fn legal_ops(self) -> Vec<FuOp> {
        FuOp::ALL.iter().copied().filter(|&op| self.supports(op)).collect()
    }
}

impl fmt::Display for FuCaps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F")?;
        if self.int_logic {
            write!(f, "+I")?;
        }
        if self.min_max {
            write!(f, "+M")?;
        }
        Ok(())
    }
}

/// Broad class of an operation; determines which units may host it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Floating point (legal on every unit).
    Float,
    /// Integer / logical (legal only on `int_logic` units).
    IntLogic,
    /// Min / max (legal only on `min_max` units).
    MinMax,
}

/// The operation repertoire of an NSC functional unit.
///
/// Each unit takes up to two input operands (`A`, `B`) per element and
/// produces one result per clock once the pipeline is full. Scalars are
/// vectors of length one (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FuOp {
    // -- floating point (every unit) --
    /// `A + B`
    Add,
    /// `A - B`
    Sub,
    /// `A * B`
    Mul,
    /// `A / B`
    Div,
    /// `-A`
    Neg,
    /// `|A|`
    Abs,
    /// `sqrt(A)`
    Sqrt,
    /// `1 / A`
    Recip,
    /// Pass `A` through unchanged (used for bypass / buffering).
    Copy,
    /// Fused `A * B` then add the unit's register-file constant.
    MulAddConst,
    // -- integer / logical (one unit per ALS) --
    /// Integer add (operands truncated to i64).
    IAdd,
    /// Integer subtract.
    ISub,
    /// Integer multiply.
    IMul,
    /// Bitwise AND of the operands' integer images.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left by `B` bits.
    Shl,
    /// Logical shift right by `B` bits.
    Shr,
    /// `1.0` if `A < B` else `0.0` (predicate streams for masking).
    CmpLt,
    /// `1.0` if `A == B` else `0.0`.
    CmpEq,
    // -- min / max (one unit per ALS) --
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
    /// Maximum of `|A|` and `B` (one-unit residual-norm step).
    MaxAbs,
}

impl FuOp {
    /// Every operation, in the canonical menu order used by the editor.
    pub const ALL: [FuOp; 23] = [
        FuOp::Add,
        FuOp::Sub,
        FuOp::Mul,
        FuOp::Div,
        FuOp::Neg,
        FuOp::Abs,
        FuOp::Sqrt,
        FuOp::Recip,
        FuOp::Copy,
        FuOp::MulAddConst,
        FuOp::IAdd,
        FuOp::ISub,
        FuOp::IMul,
        FuOp::And,
        FuOp::Or,
        FuOp::Xor,
        FuOp::Shl,
        FuOp::Shr,
        FuOp::CmpLt,
        FuOp::CmpEq,
        FuOp::Max,
        FuOp::Min,
        FuOp::MaxAbs,
    ];

    /// Which capability class this operation requires.
    pub fn class(self) -> OpClass {
        use FuOp::*;
        match self {
            Add | Sub | Mul | Div | Neg | Abs | Sqrt | Recip | Copy | MulAddConst => OpClass::Float,
            IAdd | ISub | IMul | And | Or | Xor | Shl | Shr | CmpLt | CmpEq => OpClass::IntLogic,
            Max | Min | MaxAbs => OpClass::MinMax,
        }
    }

    /// Number of input operands consumed per element.
    pub fn arity(self) -> usize {
        use FuOp::*;
        match self {
            Neg | Abs | Sqrt | Recip | Copy => 1,
            _ => 2,
        }
    }

    /// Whether this operation counts as a floating-point operation for
    /// MFLOPS accounting (the paper's 640 MFLOPS peak counts FP results).
    pub fn is_flop(self) -> bool {
        matches!(self.class(), OpClass::Float | OpClass::MinMax) && self != FuOp::Copy
    }

    /// Apply the operation to concrete element values (the simulator's
    /// arithmetic core). `c` is the unit's register-file constant, used by
    /// [`FuOp::MulAddConst`].
    #[inline]
    pub fn apply(self, a: f64, b: f64, c: f64) -> f64 {
        use FuOp::*;
        match self {
            Add => a + b,
            Sub => a - b,
            Mul => a * b,
            Div => a / b,
            Neg => -a,
            Abs => a.abs(),
            Sqrt => a.sqrt(),
            Recip => 1.0 / a,
            Copy => a,
            MulAddConst => a * b + c,
            IAdd => ((a as i64).wrapping_add(b as i64)) as f64,
            ISub => ((a as i64).wrapping_sub(b as i64)) as f64,
            IMul => ((a as i64).wrapping_mul(b as i64)) as f64,
            And => ((a as i64) & (b as i64)) as f64,
            Or => ((a as i64) | (b as i64)) as f64,
            Xor => ((a as i64) ^ (b as i64)) as f64,
            Shl => (((a as i64) as u64) << ((b as i64) as u64 & 63)) as i64 as f64,
            Shr => (((a as i64) as u64) >> ((b as i64) as u64 & 63)) as i64 as f64,
            CmpLt => {
                if a < b {
                    1.0
                } else {
                    0.0
                }
            }
            CmpEq => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            Max => a.max(b),
            Min => a.min(b),
            MaxAbs => a.abs().max(b),
        }
    }

    /// Mnemonic used by the disassembler and diagram labels.
    pub fn mnemonic(self) -> &'static str {
        use FuOp::*;
        match self {
            Add => "ADD",
            Sub => "SUB",
            Mul => "MUL",
            Div => "DIV",
            Neg => "NEG",
            Abs => "ABS",
            Sqrt => "SQRT",
            Recip => "RECIP",
            Copy => "COPY",
            MulAddConst => "MAC",
            IAdd => "IADD",
            ISub => "ISUB",
            IMul => "IMUL",
            And => "AND",
            Or => "OR",
            Xor => "XOR",
            Shl => "SHL",
            Shr => "SHR",
            CmpLt => "CLT",
            CmpEq => "CEQ",
            Max => "MAX",
            Min => "MIN",
            MaxAbs => "MAXA",
        }
    }

    /// Inverse of [`FuOp::mnemonic`], used by the microcode disassembler
    /// tests and the pseudo-code reader.
    pub fn from_mnemonic(s: &str) -> Option<FuOp> {
        FuOp::ALL.iter().copied().find(|op| op.mnemonic() == s)
    }

    /// Dense code used in the microcode encoding (6-bit field).
    pub fn code(self) -> u8 {
        FuOp::ALL.iter().position(|&op| op == self).expect("op in ALL") as u8
    }

    /// Decode a 6-bit opcode field.
    pub fn from_code(code: u8) -> Option<FuOp> {
        FuOp::ALL.get(code as usize).copied()
    }
}

impl fmt::Display for FuOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_unit_does_float_only_special_units_do_extras() {
        assert!(FuCaps::FLOAT.supports(FuOp::Add));
        assert!(!FuCaps::FLOAT.supports(FuOp::IAdd));
        assert!(!FuCaps::FLOAT.supports(FuOp::Max));
        assert!(FuCaps::FLOAT_INT.supports(FuOp::And));
        assert!(!FuCaps::FLOAT_INT.supports(FuOp::Min));
        assert!(FuCaps::FLOAT_MINMAX.supports(FuOp::MaxAbs));
        assert!(!FuCaps::FLOAT_MINMAX.supports(FuOp::Xor));
        assert!(FuCaps::FULL.supports(FuOp::Shl) && FuCaps::FULL.supports(FuOp::Min));
    }

    #[test]
    fn legal_ops_matches_supports() {
        for caps in [FuCaps::FLOAT, FuCaps::FLOAT_INT, FuCaps::FLOAT_MINMAX, FuCaps::FULL] {
            let menu = caps.legal_ops();
            for op in FuOp::ALL {
                assert_eq!(menu.contains(&op), caps.supports(op), "{caps} {op}");
            }
        }
    }

    #[test]
    fn float_menu_is_the_ten_fp_ops() {
        assert_eq!(FuCaps::FLOAT.legal_ops().len(), 10);
        assert_eq!(FuCaps::FULL.legal_ops().len(), FuOp::ALL.len());
    }

    #[test]
    fn op_codes_round_trip() {
        for op in FuOp::ALL {
            assert_eq!(FuOp::from_code(op.code()), Some(op));
            assert!(op.code() < 64, "must fit the 6-bit microcode field");
        }
        assert_eq!(FuOp::from_code(63), None);
    }

    #[test]
    fn mnemonics_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in FuOp::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op.mnemonic());
            assert_eq!(FuOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(FuOp::from_mnemonic("NOPE"), None);
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(FuOp::Add.apply(2.0, 3.0, 0.0), 5.0);
        assert_eq!(FuOp::Sub.apply(2.0, 3.0, 0.0), -1.0);
        assert_eq!(FuOp::MulAddConst.apply(2.0, 3.0, 10.0), 16.0);
        assert_eq!(FuOp::Abs.apply(-4.5, 0.0, 0.0), 4.5);
        assert_eq!(FuOp::Max.apply(-1.0, 2.0, 0.0), 2.0);
        assert_eq!(FuOp::MaxAbs.apply(-3.0, 2.0, 0.0), 3.0);
        assert_eq!(FuOp::CmpLt.apply(1.0, 2.0, 0.0), 1.0);
        assert_eq!(FuOp::CmpEq.apply(2.0, 2.0, 0.0), 1.0);
        assert_eq!(FuOp::And.apply(6.0, 3.0, 0.0), 2.0);
        assert_eq!(FuOp::Shl.apply(1.0, 4.0, 0.0), 16.0);
        assert_eq!(FuOp::Copy.apply(7.0, 99.0, 0.0), 7.0);
    }

    #[test]
    fn flop_accounting_excludes_copy_and_integer_ops() {
        assert!(FuOp::Add.is_flop());
        assert!(FuOp::Max.is_flop());
        assert!(!FuOp::Copy.is_flop());
        assert!(!FuOp::IAdd.is_flop());
        assert!(!FuOp::And.is_flop());
    }

    #[test]
    fn arity_is_one_for_unary_ops() {
        assert_eq!(FuOp::Neg.arity(), 1);
        assert_eq!(FuOp::Sqrt.arity(), 1);
        assert_eq!(FuOp::Add.arity(), 2);
        assert_eq!(FuOp::Max.arity(), 2);
    }

    #[test]
    fn caps_display() {
        assert_eq!(FuCaps::FLOAT.to_string(), "F");
        assert_eq!(FuCaps::FLOAT_INT.to_string(), "F+I");
        assert_eq!(FuCaps::FLOAT_MINMAX.to_string(), "F+M");
        assert_eq!(FuCaps::FULL.to_string(), "F+I+M");
    }
}
