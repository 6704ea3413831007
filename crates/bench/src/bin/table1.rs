//! Regenerates **Table 1** of the paper: transistor state as a
//! function of gate node state, for n-, p- and d-type devices.

use fmossim_bench::Flags;
use fmossim_netlist::{Logic, TransistorType};

fn main() {
    let _ = Flags::from_env(&[], &[]);
    println!("Table 1: Transistor State as Function of Gate Node State");
    println!();
    println!("gate state   n-type   p-type   d-type");
    for gate in [Logic::L, Logic::H, Logic::X] {
        let row: Vec<String> = TransistorType::ALL
            .iter()
            .map(|t| t.conduction(gate).to_string())
            .collect();
        println!(
            "    {}            {}        {}        {}",
            gate, row[0], row[1], row[2]
        );
    }
    println!();
    println!("(paper values: 0→0,1,1   1→1,0,1   X→X,X,1 — matched by construction,");
    println!(" asserted exhaustively in fmossim-netlist::ttype::tests::table_1)");
}
