//! The certificate layer's acceptance test, driven from the umbrella
//! crate: all four distributed workloads, the cavity, and a full
//! ensemble sweep run through the park with the spot-audit policy at
//! fraction 1.0 — then every collected certificate is re-verified
//! *offline* by `nsc::cert::verify`, which never links the engine's
//! checker, code generator or simulator. Honest certificates are
//! accepted; mutated ones are rejected, unsealed mutations by the seal
//! and resealed forgeries by the specific obligation they break.

use nsc::cert::{verify, CompilePath, ConstraintKind, Expected};
use nsc::cfd::grid::manufactured_problem;
use nsc::cfd::{
    CavityWorkload, DistributedJacobiWorkload, DistributedMultigridWorkload,
    DistributedSorWorkload, PartitionSpec,
};
use nsc::env::{certify::machine_limits, Session};
use nsc::park::{Job, MachinePark, SchedPolicy};

/// What the auditor independently knows: the machine the park runs.
fn expected(session: &Session) -> Expected {
    Expected { machine: Some(machine_limits(session.kb().config())), ..Default::default() }
}

fn jacobi(n: usize) -> DistributedJacobiWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedJacobiWorkload::new(u0, f, 1e-3, 50, PartitionSpec::Auto)
}

fn sor(n: usize) -> DistributedSorWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedSorWorkload {
        u0,
        f,
        omega: 1.5,
        tol: 1e-3,
        max_sweeps: 50,
        partition: PartitionSpec::Auto,
    }
}

fn multigrid(n: usize) -> DistributedMultigridWorkload {
    DistributedMultigridWorkload::manufactured(n, 0.8, 1e-8, 5)
}

fn cavity(n: usize) -> CavityWorkload {
    let mut w = CavityWorkload::new(n, 10.0, 3);
    w.psi_tol = 1e-6;
    w
}

/// All four distributed workloads plus the cavity pass a 100% audit on
/// one shared machine, and every collected certificate re-verifies
/// offline — bound to its lease, its seal intact.
#[test]
fn distributed_workloads_and_cavity_pass_a_full_audit() {
    let session = Session::nsc_1988();
    let want = expected(&session);
    let mut park = MachinePark::new(session, 2).with_audit_fraction(1.0);
    park.submit(Job::new("ada", 2, jacobi(8))).expect("submit jacobi");
    park.submit(Job::new("grace", 1, sor(6))).expect("submit sor");
    park.submit(Job::new("mary", 2, multigrid(17))).expect("submit multigrid");
    park.submit(Job::new("ada", 1, cavity(9))).expect("submit cavity");
    let report = park.run(SchedPolicy::Backfill).expect("the honest batch passes its audit");
    assert_eq!(report.audited_jobs, 4, "every job audited at fraction 1.0");
    assert!(report.audited_certs > 0);

    // The offline audit: re-verify everything the park collected, with
    // nothing but the certificates and the pinned machine limits.
    let mut total = 0usize;
    let mut with_topology = 0usize;
    for id in 0..4 {
        let certs = &park.outcome(id).expect("outcome kept").certificates;
        // Job 1 is the block-SOR *host baseline*: it compiles nothing
        // through the session, so an empty certificate set is honest.
        // Every NSC-compiled workload must have left a trail.
        if id != 1 {
            assert!(!certs.is_empty(), "job {id} emitted certificates");
        }
        for cert in certs {
            let lease = cert.lease.as_ref().expect("park stamped the lease");
            assert!(lease.dimension <= 2, "sub-cube of the 4-node machine");
            let report = verify(cert, &want).expect("honest certificate verifies");
            assert!(report.obligations > 0);
            if !cert.routes.is_empty() {
                assert!(!cert.coverage.is_empty(), "routes travel with a coverage proof");
                with_topology += 1;
            }
            total += 1;
        }
    }
    assert_eq!(total, report.audited_certs, "the audit covered every collected certificate");
    assert!(
        with_topology > 0,
        "multi-node sweeps staple halo routes and window coverage to their certificates"
    );
}

/// A full ensemble sweep passes the audit, its certificates distinguish
/// the compile paths (full vs cached vs rebind), and they re-verify
/// offline.
#[test]
fn ensemble_sweep_passes_a_full_audit() {
    let session = Session::nsc_1988();
    let want = expected(&session);
    let mut park = MachinePark::new(session, 2).with_audit_fraction(1.0);
    let sweep = nsc::ensemble::Sweep::new("audit study")
        .axis("re", [1.0, 10.0, 50.0, 100.0])
        .axis("steps", [1.0, 2.0]);
    let report = sweep
        .run(&mut park, SchedPolicy::Backfill, |point| {
            let w = CavityWorkload::new(9, point.value("re"), point.value("steps") as usize);
            Ok(Job::new("study", 0, w))
        })
        .expect("the honest sweep passes its audit");
    assert_eq!(report.audited_jobs, report.members.len(), "every member audited");

    let mut emitted = 0usize;
    let mut cached = 0usize;
    for member in &report.members {
        assert!(!member.certificates.is_empty(), "member {} emitted certificates", member.index);
        for cert in &member.certificates {
            verify(cert, &want).expect("honest certificate verifies");
            if cert.compile_path != CompilePath::Full {
                cached += 1;
            }
            emitted += 1;
        }
    }
    assert_eq!(emitted, report.audited_certs);
    assert!(
        cached > 0,
        "after the first member the cache serves compiles, and its certificates say so"
    );
}

/// Certificates from a *real* run reject tampering the same way the
/// synthetic proptest mutants do: unsealed mutations trip the seal,
/// resealed forgeries trip the obligation they break.
#[test]
fn tampered_run_certificates_are_rejected() {
    let session = Session::nsc_1988();
    let want = expected(&session);
    let mut park = MachinePark::new(session, 2).with_audit_fraction(1.0);
    park.submit(Job::new("ada", 2, jacobi(8))).expect("submit");
    park.run(SchedPolicy::Fifo).expect("honest run passes");
    let certs = &park.outcome(0).expect("outcome kept").certificates;

    // An unsealed census inflation is caught by the seal alone.
    let mut forged = (**certs.first().expect("at least one certificate")).clone();
    forged.census.active_fus += 1;
    let v = verify(&forged, &want).unwrap_err();
    assert_eq!(v.kind, ConstraintKind::SealIntegrity);

    // Resealing hides nothing: the inconsistent redundant total stays.
    let v = verify(&forged.sealed(), &want).unwrap_err();
    assert_eq!(v.kind, ConstraintKind::CensusTotals);

    // A detour spliced into a real halo route is rejected even resealed.
    let routed = certs
        .iter()
        .find(|c| c.routes.iter().any(|r| r.path.len() >= 2))
        .expect("the 4-node jacobi exchanges halos");
    let mut forged = (**routed).clone();
    let route = forged.routes.iter_mut().find(|r| r.path.len() >= 2).expect("checked");
    let first = route.path[0];
    let second = route.path[1];
    route.path.splice(1..1, [second, first]);
    let v = verify(&forged.sealed(), &want).unwrap_err();
    assert_eq!(v.kind, ConstraintKind::RouteMinimal);

    // A wrong machine claim is caught against the pinned limits.
    let mut forged = (**certs.first().expect("checked")).clone();
    forged.machine.fu_count *= 2;
    let v = verify(&forged.sealed(), &want).unwrap_err();
    assert_eq!(v.kind, ConstraintKind::CertWellFormed);
}
