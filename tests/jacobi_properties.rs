//! Property-based end-to-end tests: the simulated NSC must agree with the
//! host mirror bit-for-bit on *random* problems, not just the manufactured
//! one — and saved documents must round-trip losslessly.

use nsc::cfd::Grid3;
use nsc::cfd::{
    build_jacobi_document, host::jacobi_sweep_host, host::JacobiHostState, nsc_run, JacobiVariant,
};
use nsc::env::Session;
use nsc::sim::{NodeSim, RunOptions};
use proptest::prelude::*;
use rand::SeedableRng;

fn random_problem(seed: u64, n: usize) -> (Grid3, Grid3) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut u0 = Grid3::new(n, n, n);
    u0.randomize_interior(&mut rng, -1.0, 1.0);
    let mut f = Grid3::new(n, n, n);
    f.randomize_interior(&mut rng, -10.0, 10.0);
    (u0, f)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn prop_simulator_matches_host_mirror_on_random_problems(
        seed in any::<u64>(),
        pairs in 1u32..3,
    ) {
        let n = 5;
        let (u0, f) = random_problem(seed, n);
        let mut node = NodeSim::nsc_1988();
        let run =
            nsc_run::run_jacobi_on_node(&mut node, &u0, &f, 0.0, pairs, JacobiVariant::Full).unwrap();
        let mut host = JacobiHostState::new(&u0, &f);
        for _ in 0..2 * pairs {
            jacobi_sweep_host(&mut host);
        }
        let host_u = host.current();
        for (a, b) in run.u.data.iter().zip(&host_u.data) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn prop_documents_round_trip_through_json(
        n in 4usize..8,
        tol in 1e-9f64..1e-3,
        iters in 1u32..500,
    ) {
        let doc = build_jacobi_document(n, tol, iters, JacobiVariant::Full);
        let back = nsc::diagram::Document::from_json(&doc.to_json()).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn prop_generated_microcode_decodes_to_itself(seed in any::<u64>()) {
        let _ = seed;
        let session = Session::nsc_1988();
        let mut doc = build_jacobi_document(5, 1e-6, 10, JacobiVariant::Full);
        let out = session.compile(&mut doc).unwrap().output;
        for ins in &out.program.instrs {
            let bytes = ins.encode(session.kb());
            let back = nsc::microcode::MicroInstruction::decode(session.kb(), &bytes).unwrap();
            prop_assert_eq!(&back, ins);
        }
    }
}

#[test]
fn convergence_loop_is_idempotent_at_the_fixpoint() {
    // Once converged, further sweeps do not move the solution by more
    // than the tolerance (the interrupt-driven loop stops honestly).
    let (u0, f) = random_problem(7, 6);
    let tol = 1e-10;
    let mut node = NodeSim::nsc_1988();
    let run =
        nsc_run::run_jacobi_on_node(&mut node, &u0, &f, tol, 5000, JacobiVariant::Full).unwrap();
    assert!(run.converged);
    let mut host = JacobiHostState::new(&run.u, &f);
    let extra = jacobi_sweep_host(&mut host);
    assert!(extra < tol * 10.0, "post-convergence update {extra}");
}

#[test]
fn run_options_cap_runaway_documents() {
    let session = Session::nsc_1988();
    // tol = 0 never converges; the iteration cap must stop it.
    let mut doc = build_jacobi_document(5, 0.0, 3, JacobiVariant::Full);
    let out = session.compile(&mut doc).unwrap().output;
    let mut node = session.node();
    let stats = node.run_program(&out.program, &RunOptions::default()).unwrap();
    // header + 3 pairs x 2 sweeps
    assert_eq!(stats.executed, 1 + 6);
}
