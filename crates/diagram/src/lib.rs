//! # nsc-diagram — the semantic data structures of the visual environment
//!
//! Paper §4: "Two types of internal data are distinguished. One type
//! consists of information which is needed solely to manage the graphical
//! display, such as the position of images on the screen. The other type
//! consists of semantic information which is needed in order to generate
//! microcode. Since the semantics are represented graphically, both types
//! of information are needed in order to reconstruct the display. But in
//! order to generate code, only the semantic information is needed."
//!
//! This crate holds both, kept strictly apart:
//!
//! * the **semantic side** — [`PipelineDiagram`]s (one per machine
//!   instruction: "Each pipeline corresponds to a single instruction, or
//!   one line of code, in a more conventional language", §5), their
//!   [`Icon`]s, pad-to-pad [`Connection`]s, [`DmaAttrs`] captured by the
//!   Figure 9 pop-up, and [`FuAssign`] operation assignments from the
//!   Figure 10 menu;
//! * the **display side** — [`DiagramLayout`] icon positions, consulted
//!   only by the renderer and hit-testing, never by the code generator;
//! * the **document** — the saved unit: all pipelines, variable
//!   declarations and the control-flow specification (the region "reserved
//!   for control flow specifications and variable declarations" on the left
//!   of the Figure 5 window, which the 1988 prototype did not implement and
//!   this reproduction does).
//!
//! * the **builder** — [`PipelineBuilder`], through which every generated
//!   pipeline (expression trees, stencil sweeps) lowers: unit placement,
//!   shift/delay taps, direct reads and COPY staging, each by one rule.
//!
//! The prototype's output was "only the semantic data structures ... a
//! pseudo-code representation of the instructions" — these are exactly the
//! types serialized by [`Document::to_json`].

pub mod attrs;
pub mod build;
pub mod document;
pub mod icon;
pub mod ids;
pub mod pipeline;

pub use self::attrs::{CaptureMode, DmaAttrs, FuAssign, InputSpec};
pub use self::build::{OutputWindow, PipelineBuilder, Placement, Stream, Units};
pub use self::document::{
    ControlNode, ConvergenceCond, Declarations, DiagramLayout, Document, VarDecl,
};
pub use self::icon::{Icon, IconKind, PadDir, PadRef};
pub use self::ids::{ConnId, IconId, PipelineId, Point};
pub use self::pipeline::{Connection, DiagramError, PadLoc, PipelineDiagram, MAX_SDU_TAPS};
