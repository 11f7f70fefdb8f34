//! Pipeline latencies of the functional units.
//!
//! Paper §2 notes that register files "buffer data to adjust for pipeline
//! timing delays" and §5 that "timing delays, needed for proper alignment of
//! vector streams, may be introduced by routing input data into a circular
//! queue in a register file". For that machinery to be exercised, units must
//! actually have depth: the latency table gives each operation class a
//! pipeline depth in clocks. One element enters and one leaves per clock
//! once the pipe is full.

use crate::fu::FuOp;
use serde::{Deserialize, Serialize};

/// Per-operation pipeline depths, in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyTable {
    /// Add/subtract/negate/absolute/copy/compare/min/max: short pipeline.
    pub short_ops: u32,
    /// Multiply and fused multiply-add.
    pub multiply: u32,
    /// Divide, square root, reciprocal: long pipeline.
    pub long_ops: u32,
    /// Integer/logical operations.
    pub integer: u32,
    /// Transit latency of a shift/delay unit (in addition to its
    /// programmed tap delays, which are semantic rather than transport).
    pub sdu_transit: u32,
}

impl LatencyTable {
    /// The pinned 1988 table, a modelling choice: short ops 3, multiply 3,
    /// long ops 6, integer 2, SDU transit 2.
    pub const NSC_1988: LatencyTable =
        LatencyTable { short_ops: 3, multiply: 3, long_ops: 6, integer: 2, sdu_transit: 2 };

    /// Pipeline depth of `op` in clocks.
    pub fn latency(&self, op: FuOp) -> u32 {
        use FuOp::*;
        match op {
            Add | Sub | Neg | Abs | Copy | Max | Min | MaxAbs | CmpLt | CmpEq => self.short_ops,
            Mul | MulAddConst => self.multiply,
            Div | Sqrt | Recip => self.long_ops,
            IAdd | ISub | IMul | And | Or | Xor | Shl | Shr => self.integer,
        }
    }

    /// The deepest pipeline in the table; bounds fill time of any pipeline.
    pub fn max_latency(&self) -> u32 {
        self.short_ops.max(self.multiply).max(self.long_ops).max(self.integer)
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        Self::NSC_1988
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_by_class() {
        let t = LatencyTable::NSC_1988;
        assert_eq!(t.latency(FuOp::Add), 3);
        assert_eq!(t.latency(FuOp::Mul), 3);
        assert_eq!(t.latency(FuOp::Div), 6);
        assert_eq!(t.latency(FuOp::Sqrt), 6);
        assert_eq!(t.latency(FuOp::IAdd), 2);
        assert_eq!(t.latency(FuOp::Max), 3);
        assert_eq!(t.latency(FuOp::Copy), 3);
    }

    #[test]
    fn max_latency_covers_all_ops() {
        let t = LatencyTable::NSC_1988;
        for op in FuOp::ALL {
            assert!(t.latency(op) <= t.max_latency());
        }
        assert_eq!(t.max_latency(), 6);
    }

    #[test]
    fn every_op_has_nonzero_latency() {
        let t = LatencyTable::default();
        for op in FuOp::ALL {
            assert!(t.latency(op) >= 1, "{op} must take at least one clock");
        }
    }
}
