//! Semantic attributes captured through pop-up menus and sub-windows.
//!
//! Paper §5: "In the case of a cache or memory connection, additional
//! information is needed to program the DMA units. This is handled by a
//! popup subwindow, in which the cache or memory plane number, variable
//! name or starting address, stride, etc. are specified." ([`DmaAttrs`])
//!
//! "The third and final step is to program the functional units by
//! specifying the arithmetic or logical operations which they are to
//! perform. Once again this is done with a pop-up menu." ([`FuAssign`])

use nsc_arch::FuOp;
use serde::{Deserialize, Serialize, Sink};
use std::fmt;

/// How a write-side stream is captured (mirrors the microcode
/// `WriteMode`, but lives at diagram level).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CaptureMode {
    /// Store the whole stream.
    #[default]
    Stream,
    /// Store only the final element (reduction results).
    LastOnly,
}

/// DMA parameters for a memory or cache connection — the contents of the
/// Figure 9 pop-up sub-window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmaAttrs {
    /// Variable name, resolved against the document's declarations; when
    /// present, `offset` is relative to the variable's base address.
    pub variable: Option<String>,
    /// Starting word address (or offset within `variable`).
    pub offset: u64,
    /// Element stride in words.
    pub stride: i64,
    /// Words to transfer; `None` means "the pipeline's stream length".
    pub count: Option<u64>,
    /// Write-side capture mode.
    pub mode: CaptureMode,
}

impl DmaAttrs {
    /// Unit-stride attributes starting at a raw address.
    pub fn at_address(offset: u64) -> Self {
        DmaAttrs { variable: None, offset, stride: 1, count: None, mode: CaptureMode::Stream }
    }

    /// Unit-stride attributes referring to a declared variable.
    pub fn variable(name: impl Into<String>) -> Self {
        DmaAttrs {
            variable: Some(name.into()),
            offset: 0,
            stride: 1,
            count: None,
            mode: CaptureMode::Stream,
        }
    }

    /// Offset this attribute set by `delta` words (builder style).
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Set the stride (builder style).
    pub fn with_stride(mut self, stride: i64) -> Self {
        self.stride = stride;
        self
    }

    /// Set an explicit count (builder style).
    pub fn with_count(mut self, count: u64) -> Self {
        self.count = Some(count);
        self
    }

    /// Capture only the last element (builder style).
    pub fn last_only(mut self) -> Self {
        self.mode = CaptureMode::LastOnly;
        self
    }
}

impl fmt::Display for DmaAttrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.variable {
            Some(v) => write!(f, "{v}+{}", self.offset)?,
            None => write!(f, "@{}", self.offset)?,
        }
        write!(f, " stride={}", self.stride)?;
        if let Some(c) = self.count {
            write!(f, " count={c}")?;
        }
        if self.mode == CaptureMode::LastOnly {
            write!(f, " [last]")?;
        }
        Ok(())
    }
}

/// Where one operand of a functional unit comes from, at diagram level.
#[derive(Debug, Clone, Copy, PartialEq, Default, Deserialize)]
pub enum InputSpec {
    /// The wire connected to this pad, if any (external connection).
    #[default]
    Wire,
    /// The wire connected to this pad, passed through a register-file
    /// circular queue introducing `delay` elements of lag — the paper's
    /// vector-stream alignment mechanism.
    DelayedWire {
        /// Delay in elements.
        delay: u8,
    },
    /// A register-file constant (internal connection).
    Constant(f64),
    /// Feedback of the unit's own output, seeded with an initial value
    /// (internal connection; running reductions).
    Feedback {
        /// Value of the accumulator before the first element.
        init: f64,
    },
    /// This operand is not used by the unit's operation.
    Unused,
}

impl InputSpec {
    /// Whether this operand expects a wire landing on its pad.
    pub fn wants_wire(&self) -> bool {
        matches!(self, InputSpec::Wire | InputSpec::DelayedWire { .. })
    }

    /// The register-file value this operand preloads, if any: the constant
    /// of a [`InputSpec::Constant`] operand or the seed of a
    /// [`InputSpec::Feedback`] accumulator.
    pub fn preload_value(&self) -> Option<f64> {
        match self {
            InputSpec::Constant(v) => Some(*v),
            InputSpec::Feedback { init } => Some(*init),
            _ => None,
        }
    }
}

/// The derive's encoding, written out so that the register-file value
/// (the constant, or the feedback seed) goes to [`Sink::parameter`]:
/// `Document::shape_digest` masks it there.
impl Serialize for InputSpec {
    fn serialize_into(&self, sink: &mut dyn Sink) {
        let mut tagged = |variant: &str, field: Option<&str>| {
            sink.object(1);
            sink.key(variant);
            if let Some(field) = field {
                sink.object(1);
                sink.key(field);
            }
        };
        match *self {
            InputSpec::Wire => sink.str("Wire"),
            InputSpec::DelayedWire { delay } => {
                tagged("DelayedWire", Some("delay"));
                delay.serialize_into(sink)
            }
            InputSpec::Constant(v) => {
                tagged("Constant", None);
                sink.parameter(v)
            }
            InputSpec::Feedback { init } => {
                tagged("Feedback", Some("init"));
                sink.parameter(init)
            }
            InputSpec::Unused => sink.str("Unused"),
        }
    }
}

/// The programming of one functional unit within an ALS icon — the result
/// of the Figure 10 pop-up menu plus per-operand input choices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuAssign {
    /// Operation the unit performs.
    pub op: FuOp,
    /// First operand source.
    pub in_a: InputSpec,
    /// Second operand source.
    pub in_b: InputSpec,
}

impl FuAssign {
    /// A binary operation on two wires.
    pub fn binary(op: FuOp) -> Self {
        FuAssign { op, in_a: InputSpec::Wire, in_b: InputSpec::Wire }
    }

    /// A unary operation on one wire.
    pub fn unary(op: FuOp) -> Self {
        FuAssign { op, in_a: InputSpec::Wire, in_b: InputSpec::Unused }
    }

    /// A binary operation with a constant second operand.
    pub fn with_const(op: FuOp, value: f64) -> Self {
        FuAssign { op, in_a: InputSpec::Wire, in_b: InputSpec::Constant(value) }
    }

    /// A running reduction: wire on A, feedback on B.
    pub fn reduction(op: FuOp, init: f64) -> Self {
        FuAssign { op, in_a: InputSpec::Wire, in_b: InputSpec::Feedback { init } }
    }

    /// Number of wires this assignment expects to land on the unit's pads.
    pub fn expected_wires(&self) -> usize {
        [self.in_a, self.in_b].iter().filter(|s| s.wants_wire()).count()
    }

    /// The register-file preload this unit carries, if any — operand A
    /// first, matching the order the microcode generator consults the
    /// operands (it rejects units where both carry values, so at most one
    /// is ever present in a compilable document).
    pub fn preload_value(&self) -> Option<f64> {
        self.in_a.preload_value().or_else(|| self.in_b.preload_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_builders() {
        let a = DmaAttrs::variable("u").with_offset(64).with_stride(2).with_count(100);
        assert_eq!(a.variable.as_deref(), Some("u"));
        assert_eq!((a.offset, a.stride, a.count), (64, 2, Some(100)));
        let b = DmaAttrs::at_address(4096).last_only();
        assert_eq!(b.mode, CaptureMode::LastOnly);
        assert_eq!(b.offset, 4096);
        assert_eq!(b.count, None, "defaults to stream length");
    }

    #[test]
    fn dma_display_matches_figure_9_vocabulary() {
        let a = DmaAttrs::variable("u").with_offset(10000).with_stride(1);
        let s = a.to_string();
        assert!(s.contains("u+10000"));
        assert!(s.contains("stride=1"));
        let b = DmaAttrs::at_address(0).last_only();
        assert!(b.to_string().contains("[last]"));
    }

    #[test]
    fn input_specs_wanting_wires() {
        assert!(InputSpec::Wire.wants_wire());
        assert!(InputSpec::DelayedWire { delay: 5 }.wants_wire());
        assert!(!InputSpec::Constant(2.0).wants_wire());
        assert!(!InputSpec::Feedback { init: 0.0 }.wants_wire());
        assert!(!InputSpec::Unused.wants_wire());
    }

    #[test]
    fn assign_constructors_expect_the_right_wire_counts() {
        assert_eq!(FuAssign::binary(FuOp::Add).expected_wires(), 2);
        assert_eq!(FuAssign::unary(FuOp::Abs).expected_wires(), 1);
        assert_eq!(FuAssign::with_const(FuOp::Mul, 1.0 / 6.0).expected_wires(), 1);
        assert_eq!(FuAssign::reduction(FuOp::Max, 0.0).expected_wires(), 1);
    }

    #[test]
    fn input_specs_keep_the_derived_encoding() {
        let cases = [
            (InputSpec::Wire, r#""Wire""#),
            (InputSpec::DelayedWire { delay: 3 }, r#"{"DelayedWire":{"delay":3}}"#),
            (InputSpec::Constant(-2.5), r#"{"Constant":-2.5}"#),
            (InputSpec::Feedback { init: 0.0 }, r#"{"Feedback":{"init":0.0}}"#),
            (InputSpec::Unused, r#""Unused""#),
        ];
        for (spec, json) in cases {
            assert_eq!(serde_json::to_string(&spec).unwrap(), json);
            assert_eq!(serde_json::from_str::<InputSpec>(json).unwrap(), spec);
        }
    }

    #[test]
    fn serde_round_trip() {
        let a = FuAssign::reduction(FuOp::MaxAbs, 0.0);
        let json = serde_json::to_string(&a).unwrap();
        let back: FuAssign = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
