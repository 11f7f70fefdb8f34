//! The lid-driven cavity — the first scenario to exercise the distributed
//! path end-to-end.
//!
//! Vorticity–stream-function formulation after Matyka (physics/0407002):
//! on the unit square with the top lid sliding at speed `lid`,
//!
//! 1. solve the stream-function Poisson equation `∇²ψ = -ω`;
//! 2. rebuild the wall vorticity from the fresh ψ (Thom's formula,
//!    `ω_w = 2(ψ_w - ψ_in)/h²`, minus `2·lid/h` on the moving lid);
//! 3. advance the interior vorticity one FTCS step of the transport
//!    equation `ω_t + u ω_x + v ω_y = (1/Re) ∇²ω`, with `u = ψ_y`,
//!    `v = -ψ_x` by central differences.
//!
//! The whole time step is machine-resident. [`Poisson2dSolver`] cuts the
//! plane across the hypercube through the [`Partition`] trait (2-D blocks
//! on the Gray torus by default, strips on request), compiles the
//! five-point Jacobi sweep pipeline per block once, and every step runs
//! the compiled sweeps concurrently on real node threads with halo faces
//! moving through the hyperspace router — identical machinery to the 3-D
//! [`crate::DistributedJacobiWorkload`], on 2-D documents. The explicit ω
//! transport (step 3) runs on the nodes too: [`VorticityTransport`]
//! compiles the FTCS step as its own 21-unit pipeline
//! ([`build_ftcs_transport_document`]); only Thom's boundary formula
//! (step 2, `O(n)` wall work) stays on the host.

use crate::diagrams::{
    build_ftcs_transport_document, build_jacobi2d_sweep_document_windows, Jacobi2dGeometry,
    PLANE_G, PLANE_MASK, PLANE_U0, PLANE_U1, PLANE_W0, PLANE_W1, PLANE_WC,
};
use crate::distributed::{check_same_machine, measure_system_run};
use crate::grid::{Grid2, PaddedField};
use crate::host::{ftcs_update_tree, FtcsCoeffs};
use crate::overlap::{CompiledSweep, SweepEngine};
use crate::partition::{check_partition_fits, read_slabs, GridShape, Partition, PartitionSpec};
use nsc_core::{run_lanes, CompiledProgram, NscError, Session, Workload};
use nsc_sim::{NscSystem, PerfCounters, RunOptions};

/// Outcome of one distributed Poisson solve.
#[derive(Debug, Clone, Copy)]
pub struct PoissonSolveStats {
    /// Ping-pong pairs executed.
    pub pairs: u64,
    /// Final global residual (`max |masked update|` of the last sweep).
    pub residual: f64,
    /// Whether the tolerance (not the pair cap) ended it.
    pub converged: bool,
}

/// A compiled, domain-decomposed 2-D Poisson solver bound to one system:
/// compile once, solve every time step.
#[derive(Debug)]
pub struct Poisson2dSolver {
    partition: Box<dyn Partition>,
    nx: usize,
    ny: usize,
    /// The (even, odd) ping-pong sweeps.
    sweeps: (CompiledSweep, CompiledSweep),
}

impl Poisson2dSolver {
    /// Partition an `nx * ny` plane across `system`'s cube with the
    /// default decomposition (blocks when the cube offers both torus
    /// axes), compile each part's (even, odd) sweep pair on its local
    /// geometry, and load the static interior masks.
    pub fn new(
        session: &Session,
        system: &mut NscSystem,
        nx: usize,
        ny: usize,
    ) -> Result<Self, NscError> {
        Self::with_partition(session, system, nx, ny, PartitionSpec::Auto)
    }

    /// [`Poisson2dSolver::new`] with an explicit decomposition choice.
    /// Every sweep hides its halo exchange under its interior pipelines
    /// (see [`SweepEngine`]).
    pub fn with_partition(
        session: &Session,
        system: &mut NscSystem,
        nx: usize,
        ny: usize,
        spec: PartitionSpec,
    ) -> Result<Self, NscError> {
        check_same_machine(session, &system.nodes()[0])?;
        let partition = spec.build(GridShape::plane2d(nx, ny), system.cube, true)?;
        let sweeps = SweepEngine::stencil(partition.as_ref()).compile_pair(
            session,
            |p, even, windows| {
                let (lnx, lny, _) = p.local_shape();
                build_jacobi2d_sweep_document_windows(
                    Jacobi2dGeometry::new(lnx, lny),
                    even,
                    windows,
                )
            },
        )?;
        for p in partition.parts() {
            // The mask is static: ghost layers and global walls hold.
            let (lnx, lny, _) = p.local_shape();
            let local = Grid2 { nx: lnx, ny: lny, h: 1.0, data: vec![0.0; lnx * lny] };
            let mask = PaddedField::aligned2d(&local.interior_mask());
            system.node_mut(p.node).mem.plane_mut(PLANE_MASK).write_slice(0, &mask.words);
        }
        Ok(Poisson2dSolver { partition, nx, ny, sweeps })
    }

    /// The decomposition (for reporting and tests).
    pub fn partition(&self) -> &dyn Partition {
        self.partition.as_ref()
    }

    /// Solve `∇²u = -f` in place: scatter `u` and the scaled right-hand
    /// side into the node planes, sweep in ping-pong pairs with halo
    /// exchanges until `max |update| < tol` (checked once per pair, like
    /// the serial document) or `max_pairs` is exhausted, then gather the
    /// iterate back into `u`.
    ///
    /// `u` and `f` must be grids of the size the solver was compiled for,
    /// and `system` must hold every node the partition uses; otherwise the
    /// solve is refused with [`NscError::Workload`] before any plane is
    /// written.
    pub fn solve(
        &self,
        system: &mut NscSystem,
        u: &mut Grid2,
        f: &Grid2,
        tol: f64,
        max_pairs: u32,
    ) -> Result<PoissonSolveStats, NscError> {
        u.check_shape("iterate", self.nx, self.ny)?;
        f.check_shape("right-hand side", self.nx, self.ny)?;
        check_partition_fits(self.partition.as_ref(), system)?;
        // g = -h²f, as the pipeline computes (sum - g)/4.
        let h2 = u.h * u.h;
        let g_global: Vec<f64> = f.data.iter().map(|&v| -h2 * v).collect();
        let parts = self.partition.parts();
        let u_slabs = self.partition.scatter(&u.data);
        let g_slabs = self.partition.scatter(&g_global);
        for (p, (us, gs)) in parts.iter().zip(u_slabs.iter().zip(&g_slabs)) {
            let (lnx, lny, _) = p.local_shape();
            let wrap = |data: &[f64]| Grid2 { nx: lnx, ny: lny, h: u.h, data: data.to_vec() };
            let mem = &mut system.node_mut(p.node).mem;
            let padded_u = PaddedField::stencil2d(&wrap(us));
            mem.plane_mut(PLANE_U0).write_slice(0, &padded_u.words);
            mem.plane_mut(PLANE_G).write_slice(0, &PaddedField::aligned2d(&wrap(gs)).words);
            // Stale pong data from the previous solve must not leak into
            // this one's pad rows (the data rows are fully rewritten).
            mem.plane_mut(PLANE_U1).write_slice(0, &padded_u.words);
        }

        let engine = SweepEngine::stencil(self.partition.as_ref());
        let residuals = engine.ping_pong(system, &self.sweeps, tol, max_pairs)?;
        let residual = residuals.last().copied().unwrap_or(f64::INFINITY);

        let locals = read_slabs(self.partition.as_ref(), system, PLANE_U0);
        u.data = self.partition.gather(&locals);
        Ok(PoissonSolveStats { pairs: residuals.len() as u64, residual, converged: residual < tol })
    }
}

/// The machine-resident vorticity transport: one compiled FTCS pipeline
/// per part of the ψ-solver's partition, so the whole cavity time step —
/// Poisson solve *and* explicit transport — runs on the nodes.
#[derive(Debug)]
pub struct VorticityTransport {
    /// Each part's local shape and the step compiled for it, in part order.
    programs: Vec<((usize, usize, usize), CompiledProgram)>,
}

impl VorticityTransport {
    /// Compile the FTCS step for every part of `partition`, in part order;
    /// parts with identical local shapes are session cache hits. Compile
    /// failures are attributed to the part's node.
    pub fn new(
        session: &Session,
        partition: &dyn Partition,
        coeffs: FtcsCoeffs,
    ) -> Result<Self, NscError> {
        let programs = partition
            .parts()
            .iter()
            .map(|p| {
                let shape = p.local_shape();
                let mut doc =
                    build_ftcs_transport_document(Jacobi2dGeometry::new(shape.0, shape.1), coeffs);
                let prog = session.compile(&mut doc).map_err(|e| NscError::on_node(p.node, e))?;
                Ok((shape, prog))
            })
            .collect::<Result<_, NscError>>()?;
        Ok(VorticityTransport { programs })
    }

    /// Advance `omega` one FTCS step on the nodes: scatter ψ and ω into
    /// the node planes (ω twice — the SDU stream and the direct centre
    /// stream read from separate planes), run the compiled step on every
    /// part concurrently, and gather the advanced vorticity back.
    ///
    /// `partition` must cut the plane into the parts the transport was
    /// compiled for — the same count, each of the same local shape — `psi`
    /// and `omega` must be grids of the partition's plane, and `system`
    /// must hold every node it uses, or the step is refused with
    /// [`NscError::Workload`] before anything runs.
    pub fn step(
        &self,
        system: &mut NscSystem,
        partition: &dyn Partition,
        psi: &Grid2,
        omega: &mut Grid2,
    ) -> Result<(), NscError> {
        let parts = partition.parts();
        let same_parts = parts.len() == self.programs.len()
            && parts.iter().zip(&self.programs).all(|(p, (shape, _))| p.local_shape() == *shape);
        if !same_parts {
            return Err(NscError::Workload(format!(
                "this partition's {} parts do not match the {} parts the transport was \
                 compiled for (count or local shape); compile it for this partition",
                parts.len(),
                self.programs.len()
            )));
        }
        let shape = partition.shape();
        psi.check_shape("stream function", shape.nx, shape.ny)?;
        omega.check_shape("vorticity", shape.nx, shape.ny)?;
        check_partition_fits(partition, system)?;
        let psi_slabs = partition.scatter(&psi.data);
        let w_slabs = partition.scatter(&omega.data);
        for (p, (ps, ws)) in parts.iter().zip(psi_slabs.iter().zip(&w_slabs)) {
            let (lnx, lny, _) = p.local_shape();
            let wrap = |data: &[f64]| Grid2 { nx: lnx, ny: lny, h: psi.h, data: data.to_vec() };
            let mem = &mut system.node_mut(p.node).mem;
            mem.plane_mut(PLANE_U0).write_slice(0, &PaddedField::stencil2d(&wrap(ps)).words);
            mem.plane_mut(PLANE_W0).write_slice(0, &PaddedField::stencil2d(&wrap(ws)).words);
            mem.plane_mut(PLANE_WC).write_slice(0, &PaddedField::aligned2d(&wrap(ws)).words);
        }
        let lanes: Vec<_> =
            partition.node_pool().into_iter().zip(self.programs.iter().map(|(_, p)| p)).collect();
        run_lanes(system.nodes_mut(), &lanes, &RunOptions::default())?;
        let locals = read_slabs(partition, system, PLANE_W1);
        omega.data = partition.gather(&locals);
        Ok(())
    }
}

/// Outcome of a cavity run.
#[derive(Debug, Clone)]
pub struct CavityRun {
    /// Final stream function.
    pub psi: Grid2,
    /// Final vorticity.
    pub omega: Grid2,
    /// x-velocity `u = ψ_y` (lid value on the top wall).
    pub u: Grid2,
    /// y-velocity `v = -ψ_x`.
    pub v: Grid2,
    /// Time steps taken.
    pub steps: usize,
    /// Total ping-pong pairs across all Poisson solves.
    pub psi_pairs: u64,
    /// Residual of the last Poisson solve.
    pub last_residual: f64,
    /// Residual of each time step's Poisson solve, in step order.
    pub residual_history: Vec<f64>,
    /// Per-node counter deltas for the whole run, indexed by node.
    pub per_node: Vec<PerfCounters>,
    /// System aggregate: work summed, elapsed overlapped.
    pub total: PerfCounters,
    /// Simulated seconds (slowest node, compute + communication).
    pub simulated_seconds: f64,
    /// Aggregate achieved MFLOPS across the system.
    pub aggregate_mflops: f64,
}

/// The lid-driven cavity workload on an `n x n` grid.
#[derive(Debug, Clone)]
pub struct CavityWorkload {
    /// Grid points per side.
    pub n: usize,
    /// Reynolds number (lid speed and cavity size are the scales).
    pub re: f64,
    /// Lid speed along +x on the top wall.
    pub lid: f64,
    /// Time step (FTCS stability wants `dt ≲ h²·Re/4`).
    pub dt: f64,
    /// Time steps to advance.
    pub steps: usize,
    /// Stream-function solve tolerance.
    pub psi_tol: f64,
    /// Cap on ping-pong pairs per stream-function solve.
    pub psi_max_pairs: u32,
    /// How to cut the plane across the cube (`Auto` resolves to 2-D
    /// blocks when the cube has both torus axes to offer).
    pub partition: PartitionSpec,
}

impl CavityWorkload {
    /// A small, FTCS-stable default problem.
    pub fn new(n: usize, re: f64, steps: usize) -> Self {
        let h = 1.0 / (n as f64 - 1.0);
        CavityWorkload {
            n,
            re,
            lid: 1.0,
            dt: 0.2 * (h * h * re / 4.0).min(0.5 * h),
            steps,
            psi_tol: 1e-8,
            psi_max_pairs: 20_000,
            partition: PartitionSpec::Auto,
        }
    }

    /// Set the lid speed (builder style) — one of the cavity's natural
    /// sweep axes, alongside `re`.
    pub fn with_lid(mut self, lid: f64) -> Self {
        self.lid = lid;
        self
    }

    /// Set the time step explicitly (builder style), overriding the
    /// FTCS-stable default [`CavityWorkload::new`] derives from `re`.
    /// Sweeping `dt` past the stability limit is how an ensemble maps the
    /// divergence boundary.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Thom's wall-vorticity update from the current stream function.
    fn wall_vorticity(&self, omega: &mut Grid2, psi: &Grid2) {
        let n = self.n;
        let h = psi.h;
        let h2 = h * h;
        for i in 0..n {
            // Bottom (j = 0) and top lid (j = n-1).
            *omega.at_mut(i, 0) = 2.0 * (psi.at(i, 0) - psi.at(i, 1)) / h2;
            *omega.at_mut(i, n - 1) =
                2.0 * (psi.at(i, n - 1) - psi.at(i, n - 2)) / h2 - 2.0 * self.lid / h;
        }
        for j in 0..n {
            // Left (i = 0) and right (i = n-1) walls.
            *omega.at_mut(0, j) = 2.0 * (psi.at(0, j) - psi.at(1, j)) / h2;
            *omega.at_mut(n - 1, j) = 2.0 * (psi.at(n - 1, j) - psi.at(n - 2, j)) / h2;
        }
    }

    /// One FTCS step of the vorticity transport equation on the host —
    /// the bit-exact mirror of the machine pipeline
    /// ([`build_ftcs_transport_document`]), kept for verification.
    pub fn advect_diffuse(&self, omega: &Grid2, psi: &Grid2) -> Grid2 {
        let n = self.n;
        let coeffs = FtcsCoeffs::new(psi.h, self.re, self.dt);
        let mut out = omega.clone();
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                *out.at_mut(i, j) = ftcs_update_tree(
                    psi.at(i, j + 1),
                    psi.at(i, j - 1),
                    psi.at(i + 1, j),
                    psi.at(i - 1, j),
                    omega.at(i, j + 1),
                    omega.at(i, j - 1),
                    omega.at(i + 1, j),
                    omega.at(i - 1, j),
                    omega.at(i, j),
                    1.0,
                    &coeffs,
                );
            }
        }
        out
    }

    /// Central-difference velocities from the stream function; the top
    /// wall carries the lid speed.
    pub fn velocities(&self, psi: &Grid2) -> (Grid2, Grid2) {
        let n = self.n;
        let h = psi.h;
        let mut u = Grid2::new(n, n);
        let mut v = Grid2::new(n, n);
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                *u.at_mut(i, j) = (psi.at(i, j + 1) - psi.at(i, j - 1)) / (2.0 * h);
                *v.at_mut(i, j) = -(psi.at(i + 1, j) - psi.at(i - 1, j)) / (2.0 * h);
            }
        }
        for i in 1..n - 1 {
            *u.at_mut(i, n - 1) = self.lid;
        }
        (u, v)
    }
}

impl Workload for CavityWorkload {
    type Report = CavityRun;

    fn name(&self) -> String {
        format!("lid-driven cavity {}x{} Re={}", self.n, self.n, self.re)
    }

    fn execute(&self, session: &Session, system: &mut NscSystem) -> Result<CavityRun, NscError> {
        if self.n < 5 {
            return Err(NscError::Workload(format!(
                "cavity wants at least a 5x5 grid, got {}",
                self.n
            )));
        }
        if self.re <= 0.0 || self.dt <= 0.0 || !self.re.is_finite() || !self.dt.is_finite() {
            return Err(NscError::Workload(format!(
                "cavity wants re > 0 and dt > 0, got re={} dt={}",
                self.re, self.dt
            )));
        }
        let solver =
            Poisson2dSolver::with_partition(session, system, self.n, self.n, self.partition)?;
        let mut psi = Grid2::new(self.n, self.n);
        let mut omega = Grid2::new(self.n, self.n);
        let coeffs = FtcsCoeffs::new(psi.h, self.re, self.dt);
        let transport = VorticityTransport::new(session, solver.partition(), coeffs)?;
        let before: Vec<PerfCounters> = system.nodes().iter().map(|n| n.counters).collect();
        let mut psi_pairs = 0u64;
        let mut last_residual = f64::INFINITY;
        let mut residual_history = Vec::with_capacity(self.steps);
        for step in 0..self.steps {
            // ∇²ψ = -ω, warm-started from the previous step's ψ.
            let stats = solver.solve(system, &mut psi, &omega, self.psi_tol, self.psi_max_pairs)?;
            psi_pairs += stats.pairs;
            last_residual = stats.residual;
            residual_history.push(stats.residual);
            if !stats.converged {
                // Advancing the vorticity on an unconverged ψ silently
                // corrupts the flow field; fail loudly instead.
                return Err(NscError::Workload(format!(
                    "stream-function solve at step {step} stalled: residual {} after {} pairs \
                     (raise psi_max_pairs or loosen psi_tol {})",
                    stats.residual, stats.pairs, self.psi_tol
                )));
            }
            self.wall_vorticity(&mut omega, &psi);
            transport.step(system, solver.partition(), &psi, &mut omega)?;
            if !omega.linf().is_finite() {
                return Err(NscError::Workload(format!(
                    "vorticity diverged (dt={} too large for Re={}, h={})",
                    self.dt, self.re, psi.h
                )));
            }
        }

        let m = measure_system_run(system, &before);
        let (u, v) = self.velocities(&psi);
        Ok(CavityRun {
            psi,
            omega,
            u,
            v,
            steps: self.steps,
            psi_pairs,
            last_residual,
            residual_history,
            per_node: m.per_node,
            total: m.total,
            simulated_seconds: m.simulated_seconds,
            aggregate_mflops: m.aggregate_mflops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{jacobi2d_sweep_host, Jacobi2dHostState};
    use nsc_arch::HypercubeConfig;

    fn system(dim: u32, session: &Session) -> NscSystem {
        NscSystem::new(HypercubeConfig::new(dim), session.kb())
    }

    /// Each node's counters and resident plane pages: what a refused
    /// call must leave as it found it.
    fn footprint(sys: &NscSystem) -> Vec<(PerfCounters, Vec<usize>)> {
        let pages =
            |n: &nsc_sim::NodeSim| n.mem.planes.iter().map(|p| p.resident_pages()).collect();
        sys.nodes().iter().map(|n| (n.counters, pages(n))).collect()
    }

    #[test]
    fn poisson_solve_refuses_foreign_grids_and_small_systems_untouched() {
        let session = Session::nsc_1988();
        let mut sys = system(1, &session);
        let solver = Poisson2dSolver::new(&session, &mut sys, 9, 9).expect("compiles");
        let f = Grid2::new(9, 9);
        let before = footprint(&sys);
        let mut other = Grid2::new(11, 11);
        let err = solver.solve(&mut sys, &mut other, &Grid2::new(11, 11), 0.0, 2).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        let err = solver.solve(&mut sys, &mut Grid2::new(9, 9), &other, 0.0, 2).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        let mut short = Grid2::new(9, 9);
        short.data.pop();
        let err = solver.solve(&mut sys, &mut short, &f, 0.0, 2).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert_eq!(footprint(&sys), before, "a refused solve writes nothing");

        // The solver spans two nodes; a one-node system lacks node 1.
        let mut small = system(0, &session);
        let before = footprint(&small);
        let err = solver.solve(&mut small, &mut Grid2::new(9, 9), &f, 0.0, 2).unwrap_err();
        assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        assert_eq!(footprint(&small), before, "a refused solve writes nothing");
        assert!(solver.solve(&mut sys, &mut Grid2::new(9, 9), &f, 0.0, 2).is_ok());
    }

    #[test]
    fn distributed_poisson2d_matches_the_host_mirror_bit_for_bit() {
        // Fixed sweep count, tol 0: every sweep must agree exactly with
        // the 2-D host mirror across a 4-node decomposition.
        let n = 11;
        let mut u0 = Grid2::new(n, n);
        let mut f = Grid2::new(n, n);
        for j in 0..n {
            for i in 0..n {
                *f.at_mut(i, j) = ((i * 3 + j * 7) % 5) as f64 - 2.0;
                if !u0.is_boundary(i, j) {
                    *u0.at_mut(i, j) = (i as f64 - j as f64) * 0.125;
                }
            }
        }
        let session = Session::nsc_1988();
        let mut sys = system(2, &session);
        let solver = Poisson2dSolver::new(&session, &mut sys, n, n).expect("compiles");
        let mut u = u0.clone();
        let stats = solver.solve(&mut sys, &mut u, &f, 0.0, 4).expect("solves");
        assert_eq!(stats.pairs, 4);

        let mut host = Jacobi2dHostState::new(&u0, &f);
        let mut res = 0.0;
        for _ in 0..8 {
            res = jacobi2d_sweep_host(&mut host);
        }
        let host_u = host.current();
        for (a, b) in u.data.iter().zip(&host_u.data) {
            assert_eq!(a.to_bits(), b.to_bits(), "2-D distributed sweep must match the mirror");
        }
        assert_eq!(stats.residual.to_bits(), res.to_bits());
    }

    #[test]
    fn machine_ftcs_transport_matches_the_host_mirror_bit_for_bit() {
        // A non-trivial ψ/ω pair; the machine step across 1 node and a
        // 2x2 block torus must reproduce the host mirror exactly.
        let n = 11;
        let w = CavityWorkload::new(n, 40.0, 1);
        let mut psi = Grid2::new(n, n);
        let mut omega = Grid2::new(n, n);
        for j in 0..n {
            for i in 0..n {
                if !psi.is_boundary(i, j) {
                    *psi.at_mut(i, j) = ((i * 5 + j * 3) % 7) as f64 * 0.01 - 0.03;
                }
                *omega.at_mut(i, j) = ((i * 2 + j * 11) % 9) as f64 * 0.125 - 0.5;
            }
        }
        let want = w.advect_diffuse(&omega, &psi);
        let session = Session::nsc_1988();
        let coeffs = FtcsCoeffs::new(psi.h, w.re, w.dt);
        for (dim, spec) in [(0u32, PartitionSpec::Strip), (2, PartitionSpec::Block)] {
            let mut sys = system(dim, &session);
            let solver =
                Poisson2dSolver::with_partition(&session, &mut sys, n, n, spec).expect("compiles");
            let transport =
                VorticityTransport::new(&session, solver.partition(), coeffs).expect("compiles");
            let mut got = omega.clone();
            transport.step(&mut sys, solver.partition(), &psi, &mut got).expect("steps");
            for (a, b) in got.data.iter().zip(&want.data) {
                assert_eq!(a.to_bits(), b.to_bits(), "{spec:?}: transport diverged from mirror");
            }
        }
    }

    #[test]
    fn transport_refuses_a_partition_it_was_not_compiled_for() {
        let n = 17;
        let session = Session::nsc_1988();
        let coeffs = FtcsCoeffs::new(1.0 / (n as f64 - 1.0), 40.0, 1e-4);
        let mut sys = system(2, &session);
        let plane = |spec: PartitionSpec, cube| {
            spec.build(GridShape::plane2d(n, n), cube, true).expect("partitions")
        };
        let blocks = plane(PartitionSpec::Block, sys.cube);
        let strips = plane(PartitionSpec::Strip, sys.cube);
        let one_node = plane(PartitionSpec::Strip, HypercubeConfig::new(0));
        let transport =
            VorticityTransport::new(&session, blocks.as_ref(), coeffs).expect("compiles");
        let psi = Grid2::new(n, n);
        let mut omega = Grid2::new(n, n);
        *omega.at_mut(8, 8) = 1.0;
        let before = omega.clone();
        // Same part count, other local shapes; then another part count.
        for other in [&strips, &one_node] {
            let err = transport.step(&mut sys, other.as_ref(), &psi, &mut omega).unwrap_err();
            assert!(matches!(err, NscError::Workload(_)), "{err:?}");
        }
        assert_eq!(omega.data, before.data, "a refused step leaves ω alone");
        assert!(sys.nodes().iter().all(|node| node.counters.instructions == 0), "nothing ran");
        transport.step(&mut sys, blocks.as_ref(), &psi, &mut omega).expect("its own partition");
    }

    #[test]
    fn cavity_spins_up_a_single_clockwise_vortex() {
        let session = Session::nsc_1988();
        let mut sys = system(1, &session);
        let mut w = CavityWorkload::new(9, 10.0, 30);
        w.psi_tol = 1e-6;
        let run = w.execute(&session, &mut sys).expect("runs");
        // ψ = 0 on all walls; the lid drags fluid into one vortex whose
        // stream function is single-signed (negative for a +x lid with
        // u = ψ_y: ψ must dip below the wall value inside).
        let psi = &run.psi;
        for i in 0..9 {
            assert_eq!(psi.at(i, 0), 0.0);
            assert_eq!(psi.at(i, 8), 0.0);
        }
        let min = psi.data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = psi.data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < -1e-4, "a vortex must form (min ψ = {min})");
        assert!(max <= 1e-6, "primary vortex is single-signed at Re=10 ({max})");
        // Velocity under the lid follows the lid; the return flow below
        // the vortex centre runs the other way.
        assert!(run.u.at(4, 7) > 0.0);
        assert!(run.u.at(4, 2) < 0.0, "return flow ({})", run.u.at(4, 2));
        assert!(run.psi_pairs > 0 && run.aggregate_mflops > 0.0);
        assert!(run.per_node.iter().all(|c| c.flops > 0), "every node computed");
    }

    #[test]
    fn cavity_is_bit_identical_across_cube_sizes() {
        // The decomposition must not change the physics: 1 node vs 4
        // nodes, same ψ and ω to the last bit.
        let session = Session::nsc_1988();
        let mut w = CavityWorkload::new(9, 50.0, 4);
        w.psi_tol = 1e-6;
        let mut sys1 = system(0, &session);
        let a = w.execute(&session, &mut sys1).expect("1-node run");
        let mut sys4 = system(2, &session);
        let b = w.execute(&session, &mut sys4).expect("4-node run");
        for (x, y) in a.psi.data.iter().zip(&b.psi.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "ψ differs");
        }
        for (x, y) in a.omega.data.iter().zip(&b.omega.data) {
            assert_eq!(x.to_bits(), y.to_bits(), "ω differs");
        }
        assert_eq!(a.psi_pairs, b.psi_pairs, "identical convergence history");
        // The 4-node run paid for its halos and hid some of them.
        assert!(b.total.comm_ns > 0 && a.total.comm_ns == 0);
        assert!(b.per_node.iter().any(|c| c.comm_hidden_ns > 0), "some halo time hid");
    }

    #[test]
    fn cavity_rejects_bad_parameters() {
        let session = Session::nsc_1988();
        let mut sys = system(0, &session);
        let mut w = CavityWorkload::new(9, 10.0, 1);
        w.dt = 0.0;
        assert!(matches!(w.execute(&session, &mut sys), Err(NscError::Workload(_))));
        let tiny = CavityWorkload::new(4, 10.0, 1);
        assert!(matches!(tiny.execute(&session, &mut sys), Err(NscError::Workload(_))));
    }
}
