//! The spot-audit policy end to end: honest jobs sail through a 100%
//! audit, a forged certificate slipped into a lease's log fails the
//! whole batch, and the deterministic stride honors the configured
//! fraction.

use nsc_cert::{digest_hex, CompileCertificate, CompilePath, KernelWindow};
use nsc_cfd::grid::manufactured_problem;
use nsc_cfd::{DistributedJacobiWorkload, PartitionSpec};
use nsc_core::{certify::machine_limits, NscError, Session};
use nsc_park::{Job, JobOutcome, MachinePark, SchedPolicy};
use std::sync::Arc;

fn jacobi(n: usize) -> DistributedJacobiWorkload {
    let (u0, f, _) = manufactured_problem(n);
    DistributedJacobiWorkload::new(u0, f, 1e-3, 50, PartitionSpec::Auto)
}

#[test]
fn honest_jobs_pass_a_full_audit() {
    let mut park = MachinePark::new(Session::nsc_1988(), 2).with_audit_fraction(1.0);
    assert_eq!(park.audit_fraction(), 1.0);
    for _ in 0..3 {
        park.submit(Job::new("ada", 1, jacobi(6))).expect("submit");
    }
    let report = park.run(SchedPolicy::Fifo).expect("honest batch passes the audit");
    assert_eq!(report.audited_jobs, 3, "every job audited at fraction 1.0");
    assert!(report.audited_certs > 0, "each job emitted certificates to audit");
    for job in &report.jobs {
        let certs = &park.outcome(job.id).expect("outcome kept").certificates;
        assert!(!certs.is_empty(), "park attached the lease's certificates");
        for c in certs {
            let lease = c.lease.as_ref().expect("park stamped the lease");
            assert_eq!(lease.dimension, 1);
            assert_eq!(c.seal, c.compute_seal(), "restamping resealed");
        }
    }
}

#[test]
fn forged_certificate_fails_the_batch() {
    // A payload that compiles nothing but records a forged certificate —
    // the moral equivalent of a buggy engine overclaiming a window.
    let forger = |session: &Session, _system: &mut nsc_sim::NscSystem| {
        let machine = machine_limits(session.kb().config());
        let fus = machine.fu_count;
        let cert = CompileCertificate {
            doc_digest: digest_hex(0xbad),
            shape_digest: digest_hex(0xbad),
            compile_path: CompilePath::Full,
            machine,
            census: nsc_cert::ResourceCensus {
                instructions: vec![nsc_cert::InstrCensus {
                    index: 0,
                    active_fus: fus,
                    sdu: vec![],
                    planes: vec![],
                    caches: vec![],
                }],
                active_fus: fus as u64,
                sdu_taps: 0,
                plane_words: 0,
                cache_words: 0,
            },
            // More flops than the whole machine can retire in the
            // claimed cycles — sealed, so only the verifier catches it.
            windows: vec![KernelWindow {
                index: 0,
                executed_cycles: 10,
                flops: fus as u64 * 10 + 1,
                streamed: 0,
                stored: 0,
            }],
            routes: vec![],
            coverage: vec![],
            lease: None,
            seal: String::new(),
        }
        .sealed();
        session.record_certificate(Arc::new(cert));
        Ok(JobOutcome::new(0.0, vec![]))
    };

    let mut park = MachinePark::new(Session::nsc_1988(), 2).with_audit_fraction(1.0);
    park.submit(Job::new("mallory", 0, forger)).expect("submit");
    let err = park.run(SchedPolicy::Fifo).expect_err("forged certificate must fail the run");
    match err {
        NscError::Workload(msg) => {
            assert!(msg.contains("certificate audit failed"), "audit failure surfaced: {msg}");
            assert!(msg.contains("mallory"), "tenant named in the rejection: {msg}");
            assert!(msg.contains("V011"), "the forged obligation is named: {msg}");
        }
        other => panic!("expected a workload error, got {other:?}"),
    }
}

#[test]
fn audit_fraction_zero_audits_nothing() {
    let mut park = MachinePark::new(Session::nsc_1988(), 1);
    assert_eq!(park.audit_fraction(), 0.0, "auditing is opt-in");
    park.submit(Job::new("ada", 0, jacobi(5))).expect("submit");
    let report = park.run(SchedPolicy::Fifo).expect("runs");
    assert_eq!((report.audited_jobs, report.audited_certs), (0, 0));
    // Certificates are still collected — auditing them is the knob, not
    // emitting them.
    assert!(!park.outcome(0).expect("outcome").certificates.is_empty());
}

#[test]
fn audit_stride_follows_the_fraction() {
    let mut park = MachinePark::new(Session::nsc_1988(), 2).with_audit_fraction(0.5);
    for _ in 0..4 {
        park.submit(Job::new("ada", 1, jacobi(5))).expect("submit");
    }
    let report = park.run(SchedPolicy::Fifo).expect("runs");
    assert_eq!(report.audited_jobs, 2, "every other job audited at fraction 0.5");
}
