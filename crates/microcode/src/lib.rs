//! # nsc-microcode — the NSC microinstruction word
//!
//! Paper §3: "the NSC lacks anything resembling a conventional assembly
//! language. Each instruction must be specified in a complex hierarchical
//! microcode which contains specific control for every function unit,
//! register file, switch setting, DMA unit, etc. The effect of an
//! instruction is to completely specify the pipeline configuration and
//! function unit operations for the entire machine. This requires a few
//! thousand bits of information per instruction, encoded in dozens of
//! separate fields."
//!
//! This crate defines that instruction word exactly:
//!
//! * [`FuField`] — per-functional-unit control: enable, opcode, two operand
//!   input selectors (switch / register-file constant / circular delay
//!   queue / feedback), and a register-file constant preload;
//! * [`SwitchTable`] — one source-select per switch sink (the FLONET
//!   program);
//! * [`PlaneDmaField`] / [`CacheDmaField`] — the DMA controllers that "pump
//!   data through the pipelines";
//! * [`SduField`] — shift/delay-unit tap programming;
//! * [`SequencerField`] — the central sequencer: fall-through, jumps,
//!   counted loops, and the interrupt-evaluated conditional branch used for
//!   convergence tests.
//!
//! [`MicroInstruction::encode`] packs all of it bit-exactly (via
//! [`bits::BitWriter`]) and [`MicroInstruction::decode`] recovers it;
//! experiment T2 measures the encoded width and field census against the
//! paper's "few thousand bits ... dozens of fields" claim.

pub mod bits;
pub mod census;
pub mod dma;
pub mod fu_field;
pub mod instr;
pub mod program;
pub mod sdu_field;
pub mod seq;
pub mod switch_table;

pub use self::bits::{BitReader, BitWriter};
pub use self::census::{Census, FieldGroup};
pub use self::dma::{CacheDmaField, PlaneDmaField, WriteMode};
pub use self::fu_field::{FuField, FuInputSel};
pub use self::instr::MicroInstruction;
pub use self::program::{MicroProgram, ProgramBuilder};
pub use self::sdu_field::{SduField, SduTapField, TooManyTaps};
pub use self::seq::{CmpKind, CondBranch, SeqCtl, SequencerField};
pub use self::switch_table::{SwitchTable, UnknownPort};
