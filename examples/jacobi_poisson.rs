//! The paper's running example (Equation 1, Figures 2 and 11): point
//! Jacobi for the 3-D Poisson equation with a residual convergence check,
//! built as pipeline diagrams, compiled to microcode and executed on the
//! simulated NSC — then verified bit-for-bit against the host mirror.
//!
//! Writes the Figure 11 diagram render and the pseudo-code to `out/`.
//!
//! Run with: `cargo run --release --example jacobi_poisson`

use nsc::cfd::{
    build_jacobi_document, grid::manufactured_problem, host::jacobi_sweep_host,
    host::JacobiHostState, nsc_run::run_jacobi_on_node, JacobiVariant,
};
use nsc::codegen::emit_pseudocode;
use nsc::env::{NscError, Session};

fn main() -> Result<(), NscError> {
    let n = 16;
    let tol = 1e-7;
    let session = Session::nsc_1988();
    println!("solving -lap(u) = f on a {n}^3 grid, tolerance {tol:e}\n");

    // Figure 11: the completed pipeline diagram.
    let mut doc = build_jacobi_document(n, tol, 5000, JacobiVariant::Full);
    let compiled = session.compile(&mut doc)?;
    std::fs::create_dir_all("out").ok();
    for (name, art) in session.display_document(&doc) {
        if name.contains("even") {
            std::fs::write("out/fig11_jacobi_pipeline.txt", &art).ok();
            println!("--- Figure 11: completed Jacobi pipeline diagram ---");
            println!("{art}");
        }
    }
    std::fs::write("out/fig2_semantic_pseudocode.txt", emit_pseudocode(&doc)).ok();
    println!(
        "program: {} instruction(s), {} bits of microcode each",
        compiled.program().len(),
        nsc::microcode::MicroInstruction::encoded_bits(session.kb())
    );

    // Execute to convergence on the simulated node.
    let (u0, f, exact) = manufactured_problem(n);
    let mut node = session.node();
    let run = run_jacobi_on_node(&mut node, &u0, &f, tol, 5000, JacobiVariant::Full)?;
    println!(
        "\nconverged: {} after {} sweeps, residual {:.3e}",
        run.converged, run.sweeps, run.residual
    );
    println!(
        "simulated: {} cycles = {:.3} ms at 20 MHz, {:.1} MFLOPS achieved (peak 640)",
        run.counters.cycles,
        run.counters.seconds(20_000_000) * 1e3,
        run.mflops
    );
    println!("error vs exact solution: {:.3e} (discretization level)", run.u.linf_diff(&exact));

    // Bit-exact agreement with the host mirror.
    let mut host = JacobiHostState::new(&u0, &f);
    for _ in 0..run.sweeps {
        jacobi_sweep_host(&mut host);
    }
    let host_u = host.current();
    let identical = run.u.data.iter().zip(&host_u.data).all(|(a, b)| a.to_bits() == b.to_bits());
    println!("bit-for-bit match with host mirror over {} points: {identical}", host_u.len());
    assert!(identical);
    Ok(())
}
