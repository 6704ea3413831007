//! MOS circuit generators for the FMOSSIM reproduction.
//!
//! The DAC-85 paper evaluates FMOSSIM on two dynamic RAM circuits —
//! RAM64 (378 transistors, 229 nodes) and RAM256 (1148 transistors,
//! 695 nodes) — chosen because "they could easily be scaled in size"
//! and "could be fully tested by test sequences consisting of special
//! tests of the control and peripheral logic followed by a marching
//! test of the memory array". The pattern-count arithmetic of the paper
//! (407 = 7 + 40 + 40 + 320 for RAM64, 1447 = 7 + 80 + 80 + 1280 for
//! RAM256, with a 5·N march) identifies the organisations as 8×8 and
//! 16×16 single-bit arrays.
//!
//! This crate rebuilds those circuits from scratch in the same
//! technology style (nMOS, depletion pull-up loads, two-phase clocks):
//!
//! * [`Cells`] — an nMOS cell library: ratioed inverters/NAND/NOR,
//!   pass transistors, precharge devices, dynamic latches.
//! * [`nor_decoder`] — NOR-based address decoders.
//! * [`Ram`] — the parameterised 3-transistor dynamic RAM with row and
//!   column decoders, precharged read bit lines, write bit lines,
//!   pass-transistor column multiplexers, data-in latch, sense
//!   inverter and dynamic output latch: `Ram::new(8, 8)` is RAM64,
//!   `Ram::new(16, 16)` is RAM256.
//! * [`RegisterFile`] — a small register array (the paper's conclusion
//!   names register arrays as a typical use case), used by the examples
//!   and extra tests.
//!
//! Beyond the paper's two RAMs, the **benchmark zoo** adds workloads
//! with deliberately different structure and observability profiles,
//! so the conformance tests exercise the simulator across the spread
//! of MOS circuit styles the paper's methodology calls for:
//!
//! * [`ShiftRegister`] — a two-phase dynamic master/slave pipeline:
//!   pure sequential dataflow, every stage observable.
//! * [`RippleCounter`] — a clocked binary counter with a rippling
//!   carry-enable chain: deep state feedback, every bit observable.
//! * [`Pla`] — a dynamic NOR–NOR PLA with precharged AND/OR planes on
//!   a three-phase clock, programmable via [`PlaSpec`] (including
//!   seeded random programmings).
//! * [`AluDatapath`] — the adder slice plus AND/OR/XOR blocks behind a
//!   pass-gate result mux: combinational, with opcode-dependent fault
//!   masking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adder;
mod alu;
mod cells;
mod counter;
mod decoder;
mod pla;
mod ram;
mod regfile;
mod shift;

pub use adder::{RippleAdder, RippleAdderIo};
pub use alu::{AluDatapath, AluIo, AluOp, ALU_OPS};
pub use cells::Cells;
pub use counter::{RippleCounter, RippleCounterIo};
pub use decoder::nor_decoder;
pub use pla::{Pla, PlaIo, PlaSpec};
pub use ram::{Ram, RamIo};
pub use regfile::{RegisterFile, RegisterFileIo};
pub use shift::{ShiftRegister, ShiftRegisterIo};
