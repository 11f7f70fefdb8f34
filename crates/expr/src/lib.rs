//! # nsc-expr — the compilation problem of paper §3, made executable
//!
//! "This causes serious problems for a compiler in trying to decide where
//! to allocate variables, since the optimum layout for one pipeline may be
//! unworkable for the next ... Given current compiler technology, it is
//! difficult to see how all of these considerations can be handled
//! simultaneously."
//!
//! This crate provides the minimal compiler front half needed to *measure*
//! that difficulty (experiment T5):
//!
//! * [`Expr`] — elementwise vector expression trees (loads, constants,
//!   unary/binary operations) with a host evaluator;
//! * [`AllocStrategy`] — variable-to-plane allocation policies, from the
//!   naive everything-in-plane-0 through round-robin spreading;
//! * [`compile_expr`] — a mapper onto pipeline diagrams (through
//!   `nsc_diagram::PipelineBuilder`) that *works around*
//!   plane-port conflicts the §3 way: when two operand streams live in the
//!   same plane, all but one are staged through data caches by extra
//!   preceding instructions. The instruction count (and the simulated
//!   cycles) then quantify how much a bad allocation costs.

pub mod alloc;
pub mod compile;
pub mod expr;

pub use self::alloc::AllocStrategy;
pub use self::compile::{compile_expr, CompileStats};
pub use self::expr::Expr;
