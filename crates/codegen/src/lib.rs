//! # nsc-codegen — the microcode generator
//!
//! Paper §4: "Once a complete program (or consistent program fragment) has
//! been defined, the microcode generator uses the semantic data structures
//! created by the graphical editor to generate machine code for the NSC.
//! The checker is invoked again at this point to perform a thorough check
//! of global constraints and other conditions which may not be practical to
//! check during the editing process."
//!
//! And §5: "The microcode generator would later derive switch settings by
//! interrogating the connection tables built by the graphical editor."
//!
//! Lowering one pipeline diagram to one [`MicroInstruction`](nsc_microcode::MicroInstruction) involves:
//!
//! 1. the global check, run once per document: [`generate`] runs it, and
//!    [`generate_prechecked`] trusts a caller that already has (lowering
//!    itself does not re-check);
//! 2. resolving every icon's physical binding and every unit's [`FuId`](nsc_arch::FuId);
//! 3. deriving the switch program from the connection table;
//! 4. **timing analysis**: computing each stream's *transport lag* (pipeline
//!    depths crossed) separately from its *intended lag* (stencil tap
//!    offsets and user-requested delays), and inserting register-file
//!    circular-queue delays so that every functional unit pairs the
//!    elements the diagram means it to pair — the paper's "timing delays,
//!    needed for proper alignment of vector streams";
//! 5. programming the DMA controllers, including the automatically-derived
//!    write-side `skip` that discards stencil warm-up elements;
//! 6. assembling the sequencer program from the document's control-flow
//!    tree (counted loops and residual-convergence loops).
//!
//! The 1988 prototype stopped before this stage and emitted "only the
//! semantic data structures ... a pseudo-code representation of the
//! instructions"; [`pseudo::emit_pseudocode`] reproduces that output too.

pub mod control;
pub mod lower;
pub mod pseudo;

pub use self::control::{generate, generate_prechecked, GenOutput};
pub use self::lower::InstrMap;
pub use self::pseudo::emit_pseudocode;

use nsc_checker::Diagnostic;
use nsc_diagram::IconId;
use std::fmt;

/// Errors the generator can report.
#[derive(Debug, Clone, PartialEq)]
pub enum GenError {
    /// The global checker pass found errors; codegen refuses to proceed.
    CheckFailed(Vec<Diagnostic>),
    /// Stream alignment needs a deeper register-file queue than exists.
    DelayOverflow {
        /// Icon holding the unit.
        icon: IconId,
        /// Unit position within the icon.
        pos: u8,
        /// Queue depth the alignment would need.
        needed: u32,
        /// Register-file capacity.
        capacity: usize,
    },
    /// A unit needs two register-file preloads (two constants, or a
    /// constant and a feedback seed); the register file loads one per
    /// instruction.
    PreloadConflict {
        /// Icon holding the unit.
        icon: IconId,
        /// Unit position within the icon.
        pos: u8,
    },
    /// The document has no instructions to emit.
    EmptyProgram,
    /// A diagram shape the generator cannot lower.
    Unsupported(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::CheckFailed(diags) => {
                writeln!(f, "global check failed with {} finding(s):", diags.len())?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            GenError::DelayOverflow { icon, pos, needed, capacity } => write!(
                f,
                "aligning streams at {icon}.u{pos} needs a {needed}-deep queue; \
                 the register file holds {capacity} words"
            ),
            GenError::PreloadConflict { icon, pos } => write!(
                f,
                "{icon}.u{pos} needs two register-file preloads; only one loads per instruction"
            ),
            GenError::EmptyProgram => write!(f, "document contains no instructions"),
            GenError::Unsupported(msg) => write!(f, "unsupported diagram shape: {msg}"),
        }
    }
}

impl std::error::Error for GenError {}
