//! `jacobi-solve`: the paper's running example (Eq. 1, Fig. 2/11) end to
//! end. One operation builds a fresh 2-node system and runs one
//! distributed Jacobi solve of the 64³ manufactured Poisson problem
//! (strips, overlapped engine, tolerance 0, exactly 8 sweep pairs)
//! through `DistributedJacobiWorkload::execute`, ending with the gathered
//! grid. One session serves every operation; set-up's warm-up fills its
//! compile cache.

use crate::harness::Workload;
use crate::stats::Series;
use crate::trace::Cx;
use nsc::arch::HypercubeConfig;
use nsc::cfd::diagrams::{
    build_jacobi_sweep_document_windows, JacobiGeometry, PLANE_U0, PLANE_U1, RESIDUAL_CACHE,
};
use nsc::cfd::grid::manufactured_problem;
use nsc::cfd::{
    jacobi_sweep_host, load_problem, read_slabs, DistributedJacobiWorkload, Grid3, GridShape,
    HaloSpec, JacobiHostState, JacobiVariant, Part, Partition, PartitionSpec, StripPartition,
    SweepEngine, SweepIo, SweepWindow,
};
use nsc::env::{CacheStats, Session, Workload as _};
use nsc::sim::{NscSystem, PerfCounters, RunOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Grid points per side.
pub const N: usize = 64;
/// Ping-pong sweep pairs per solve.
pub const PAIRS: u32 = 8;
/// Cube dimension: 2 nodes.
const DIM: u32 = 1;

/// The host mirror's answer after the same sweeps.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The iterate, row-major like the gathered grid.
    pub grid: Vec<f64>,
    /// The last sweep's `max |masked update|`.
    pub residual: f64,
}

impl Reference {
    /// Run `2 * pairs` host-mirror sweeps from `(u0, f)`.
    pub fn host_mirror(u0: &Grid3, f: &Grid3, pairs: u32) -> Reference {
        let mut state = JacobiHostState::new(u0, f);
        let mut residual = f64::INFINITY;
        for _ in 0..2 * pairs {
            residual = jacobi_sweep_host(&mut state);
        }
        Reference { grid: state.current().data, residual }
    }
}

/// Bit-compare a solve's grid and residual with the host mirror.
pub fn check_solution(grid: &[f64], residual: f64, reference: &Reference) -> Result<(), String> {
    if grid.len() != reference.grid.len() {
        return Err(format!("grid has {} words, host mirror {}", grid.len(), reference.grid.len()));
    }
    if let Some(i) = grid.iter().zip(&reference.grid).position(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(format!("grid word {i} is {:e}, host mirror {:e}", grid[i], reference.grid[i]));
    }
    if residual.to_bits() != reference.residual.to_bits() {
        return Err(format!("residual {residual:e}, host mirror {:e}", reference.residual));
    }
    Ok(())
}

/// The workload state.
pub struct JacobiSolve {
    session: Session,
    solve: DistributedJacobiWorkload,
    reference: Option<Reference>,
    cache_before: CacheStats,
}

/// What a solve hands to its check.
pub struct Solved {
    grid: Vec<f64>,
    residual: f64,
    /// Kept until the check, so tearing it down is not timed.
    system: NscSystem,
    /// Counters before the sweeps (the solve's own delta follows).
    before: Vec<PerfCounters>,
    /// Words `load_problem` wrote plus words read back (traced only).
    words_staged: Option<usize>,
}

fn err(e: nsc::env::NscError) -> String {
    e.to_string()
}

/// Wrap each part's slab (ghosts included) as a grid on its local shape.
fn local_grids(partition: &dyn Partition, global: &Grid3) -> Vec<Grid3> {
    partition
        .scatter(&global.data)
        .into_iter()
        .zip(partition.parts())
        .map(|(data, p)| {
            let (nx, ny, nz) = p.local_shape();
            Grid3 { nx, ny, nz, h: global.h, data }
        })
        .collect()
}

/// The windowed sweep document of one part (even: `u0 -> u1`).
fn sweep_document(even: bool) -> impl Fn(&Part, &[SweepWindow]) -> nsc::diagram::Document {
    move |p, windows| {
        let (nx, ny, nz) = p.local_shape();
        build_jacobi_sweep_document_windows(JacobiGeometry::slab(nx, ny, nz), even, windows)
    }
}

impl JacobiSolve {
    /// An `n³` problem solved with `pairs` sweep pairs; the seed draws the
    /// initial iterate's interior.
    pub fn with_problem(seed: u64, n: usize, pairs: u32) -> JacobiSolve {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut u0, f, _) = manufactured_problem(n);
        u0.randomize_interior(&mut rng, -1.0, 1.0);
        let session = Session::nsc_1988();
        let cache_before = session.cache_stats();
        JacobiSolve {
            session,
            solve: DistributedJacobiWorkload {
                u0,
                f,
                tol: 0.0,
                max_pairs: pairs,
                partition: PartitionSpec::Strip,
                overlap: true,
            },
            reference: None,
            cache_before,
        }
    }
}

impl Workload for JacobiSolve {
    type Out = Solved;
    const ITEM: &'static str = "solves";
    const PREDICTED: &'static [&'static str] = &["cfd.sweep"];
    const THREADS: usize = 2;

    fn setup(seed: u64) -> Result<Self, String> {
        let mut w = JacobiSolve::with_problem(seed, N, PAIRS);
        w.op()?;
        Ok(w)
    }

    fn oracle(&mut self) -> Result<(), String> {
        self.reference =
            Some(Reference::host_mirror(&self.solve.u0, &self.solve.f, self.solve.max_pairs));
        Ok(())
    }

    fn items(&self) -> f64 {
        1.0
    }

    fn prepare(&mut self, _traced: bool) {
        self.cache_before = self.session.cache_stats();
    }

    fn op(&mut self) -> Result<Solved, String> {
        let mut system = NscSystem::new(HypercubeConfig::new(DIM), self.session.kb());
        let before = system.nodes().iter().map(|n| n.counters).collect();
        let run = self.solve.execute(&self.session, &mut system).map_err(err)?;
        Ok(Solved { grid: run.u.data, residual: run.residual, system, before, words_staged: None })
    }

    fn traced_op(&mut self, cx: &Cx) -> Result<Solved, String> {
        let (session, w) = (&self.session, &self.solve);
        let (n, opts) = (w.u0.nx, RunOptions::default());
        let mut system =
            cx.span("sim.system_new", |_| NscSystem::new(HypercubeConfig::new(DIM), session.kb()));
        let partition = cx
            .span("cfd.partition", |_| {
                w.partition.build(GridShape::volume3d(n, n, n), system.cube, false)
            })
            .map_err(err)?;
        let partition = partition.as_ref();
        let (u_slabs, f_slabs) = cx
            .span("cfd.scatter", |_| (local_grids(partition, &w.u0), local_grids(partition, &w.f)));
        let loaded = cx.span("cfd.load", |_| {
            let mut words = 0;
            for (p, (lu, lf)) in partition.parts().iter().zip(u_slabs.iter().zip(&f_slabs)) {
                let state = JacobiHostState::new(lu, lf);
                load_problem(system.node_mut(p.node), &state, JacobiVariant::Full);
                words += state.u.words.len() + state.mask.words.len() + state.g.words.len();
            }
            words
        });
        let engine = cx.span("cfd.engine_new", |_| {
            SweepEngine::new(partition, HaloSpec::stencil(), w.overlap)
        });
        let (even, odd) = cx
            .span("core.compile", |_| {
                Ok((
                    engine.compile(session, sweep_document(true))?,
                    engine.compile(session, sweep_document(false))?,
                ))
            })
            .map_err(err)?;
        let before = system.nodes().iter().map(|n| n.counters).collect();
        let members = partition.member_nodes();
        let mut residual = f64::INFINITY;
        for pair in 0..w.max_pairs {
            let io = if pair == 0 {
                SweepIo::first(PLANE_U0, PLANE_U1)
            } else {
                SweepIo::steady(PLANE_U0, PLANE_U1)
            };
            cx.span("cfd.sweep", |_| engine.sweep(&mut system, &even, io, &opts)).map_err(err)?;
            let io = SweepIo::steady(PLANE_U1, PLANE_U0);
            cx.span("cfd.sweep", |_| engine.sweep(&mut system, &odd, io, &opts)).map_err(err)?;
            residual = cx.span("sim.reduce", |_| {
                system.pool_max_cache_scalar(&members, RESIDUAL_CACHE, 0).0
            });
        }
        let (grid, read) = cx.span("cfd.gather", |_| {
            let locals = read_slabs(partition, &system, PLANE_U0);
            let read: usize = locals.iter().map(Vec::len).sum();
            (partition.gather(&locals), read)
        });
        Ok(Solved { grid, residual, system, before, words_staged: Some(loaded + read) })
    }

    fn check(
        &mut self,
        out: Solved,
        _latency: f64,
        _cx: Option<&Cx>,
        series: &mut Series,
    ) -> Result<(), String> {
        let reference = self.reference.as_ref().ok_or("no host-mirror reference")?;
        check_solution(&out.grid, out.residual, reference)?;
        let clock = self.session.kb().config().clock_hz;
        let (mut flops, mut simulated, mut comm, mut hidden) = (0u64, 0.0f64, 0u64, 0u64);
        for (node, before) in out.system.nodes().iter().zip(&out.before) {
            let d = node.counters.since(before);
            flops += d.flops;
            simulated = simulated.max(d.seconds_with_comm(clock));
            comm += d.comm_ns;
            hidden += d.comm_hidden_ns;
        }
        series.add("sim.flops", flops as f64);
        series.add("sim.simulated_s", simulated);
        series
            .add("sim.comm_hidden_frac", if comm > 0 { hidden as f64 / comm as f64 } else { 0.0 });
        if let Some(words) = out.words_staged {
            series.add("cfd.words_staged", words as f64);
        }
        let cache = self.session.cache_stats();
        series.add("core.cache_hits", (cache.hits - self.cache_before.hits) as f64);
        series.add("core.cache_rebinds", (cache.rebinds - self.cache_before.rebinds) as f64);
        series.add("core.cache_misses", (cache.misses - self.cache_before.misses) as f64);
        Ok(())
    }

    /// Kernel coverage of the sweep programs every solve runs: compile
    /// each part's window documents (warm cache hits) and count the
    /// instructions with a specialized kernel.
    fn finish(&mut self, series: &mut Series) -> Result<(), String> {
        let n = self.solve.u0.nx;
        let strips = StripPartition::new(GridShape::volume3d(n, n, n), HypercubeConfig::new(DIM))
            .map_err(err)?;
        let axis = strips.shape().overlap_axis();
        let (mut specialized, mut instructions) = (0usize, 0usize);
        for p in strips.parts() {
            let split = p.overlap_split(axis, &HaloSpec::stencil());
            let mut window_sets: Vec<Vec<SweepWindow>> =
                split.interior.into_iter().map(|w| vec![w]).collect();
            window_sets.push(split.shell_windows());
            for windows in window_sets.iter().filter(|w| !w.is_empty()) {
                for even in [true, false] {
                    let mut doc = sweep_document(even)(p, windows);
                    let prog = self.session.compile(&mut doc).map_err(err)?;
                    let kernel = prog.kernel().ok_or("sweep compiled without a kernel")?;
                    specialized += kernel.specialized();
                    instructions += kernel.instructions();
                }
            }
        }
        series.add("sim.kernel_specialized", specialized as f64);
        series.add("sim.kernel_instructions", instructions as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small problem with a warm compile cache, as after set-up.
    fn small() -> JacobiSolve {
        let mut w = JacobiSolve::with_problem(3, 8, 2);
        w.op().unwrap();
        w.oracle().unwrap();
        w
    }

    #[test]
    fn both_paths_match_the_host_mirror_and_report_the_same_counts() {
        let mut w = small();
        let mut untraced = Series::default();
        w.prepare(false);
        let out = w.op().unwrap();
        w.check(out, 0.0, None, &mut untraced).unwrap();

        let tracer = crate::trace::Tracer::new();
        let mut traced = Series::default();
        w.prepare(true);
        let out = w.traced_op(&tracer.op(0)).unwrap();
        assert!(out.words_staged.unwrap() > 0);
        w.check(out, 0.0, None, &mut traced).unwrap();
        for name in ["sim.flops", "sim.simulated_s", "sim.comm_hidden_frac", "core.cache_hits"] {
            assert_eq!(untraced.values(name), traced.values(name), "{name}");
        }
        assert!(traced.values("core.cache_hits")[0] > 0.0, "warm compiles are cache hits");
        assert_eq!(traced.values("core.cache_misses"), &[0.0]);
        let names: Vec<_> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names.iter().filter(|&&n| n == "cfd.sweep").count(), 4);
        w.finish(&mut traced).unwrap();
        let instructions = traced.values("sim.kernel_instructions")[0];
        assert!(instructions > 0.0);
        assert_eq!(traced.values("sim.kernel_specialized"), &[instructions], "full coverage");
    }

    #[test]
    fn a_corrupted_grid_or_residual_fails_the_check() {
        let mut w = small();
        let out = w.op().unwrap();
        let reference = w.reference.clone().unwrap();
        check_solution(&out.grid, out.residual, &reference).unwrap();
        let mut grid = out.grid.clone();
        let mid = grid.len() / 2;
        grid[mid] = f64::from_bits(grid[mid].to_bits() ^ 1);
        assert!(check_solution(&grid, out.residual, &reference).is_err());
        assert!(check_solution(&out.grid[1..], out.residual, &reference).is_err());
        let residual = f64::from_bits(out.residual.to_bits() ^ 1);
        assert!(check_solution(&out.grid, residual, &reference).is_err());
    }
}
