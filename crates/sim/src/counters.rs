//! Performance counters: how the simulator grounds the paper's numbers.
//!
//! The published peak is 640 MFLOPS per node (32 units x 20 MHz); the
//! counters measure what generated programs actually achieve against it
//! (experiment T1) and provide the simulated-time axis for the solver
//! experiments.

use serde::{Deserialize, Serialize};

/// Cumulative counters of one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfCounters {
    /// Clock cycles elapsed (instruction setup + streaming + drain).
    pub cycles: u64,
    /// Microinstructions executed.
    pub instructions: u64,
    /// Floating-point results produced (MFLOPS numerator).
    pub flops: u64,
    /// Words streamed out of planes and caches.
    pub elements_streamed: u64,
    /// Words stored into planes and caches.
    pub elements_stored: u64,
    /// Pipeline-completion interrupts raised.
    pub completion_interrupts: u64,
    /// Arithmetic exceptions trapped (non-finite results).
    pub exceptions: u64,
    /// Simulated nanoseconds this node spent in hyperspace-router
    /// communication (halo exchanges, reductions). Charged by
    /// `NscSystem::exchange`; independent of the clock-cycle count.
    pub comm_ns: u64,
    /// The portion of `comm_ns` that was *hidden* under concurrently
    /// issued compute — messages charged inside an overlappable
    /// communication window (`NscSystem::open_comm_window`). Hidden time
    /// does not extend the node's wall clock: only the non-overlapped
    /// remainder `comm_ns - comm_hidden_ns` does.
    pub comm_hidden_ns: u64,
}

impl PerfCounters {
    /// Simulated wall time at a clock rate.
    pub fn seconds(&self, clock_hz: u64) -> f64 {
        self.cycles as f64 / clock_hz as f64
    }

    /// Achieved MFLOPS at a clock rate.
    pub fn mflops(&self, clock_hz: u64) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flops as f64 / self.seconds(clock_hz) / 1.0e6
    }

    /// Simulated wall time including router communication: compute cycles
    /// at the clock rate plus the *non-overlapped* remainder of this
    /// node's message time (messages hidden under an overlap window cost
    /// no wall clock).
    pub fn seconds_with_comm(&self, clock_hz: u64) -> f64 {
        self.seconds(clock_hz) + self.comm_ns.saturating_sub(self.comm_hidden_ns) as f64 * 1e-9
    }

    /// Fraction of the machine's peak achieved.
    pub fn efficiency(&self, clock_hz: u64, peak_mflops: f64) -> f64 {
        self.mflops(clock_hz) / peak_mflops
    }

    /// The counters accumulated since an earlier snapshot of the same
    /// node — per-run deltas for drivers that reuse a node across runs.
    pub fn since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            instructions: self.instructions.saturating_sub(earlier.instructions),
            flops: self.flops.saturating_sub(earlier.flops),
            elements_streamed: self.elements_streamed.saturating_sub(earlier.elements_streamed),
            elements_stored: self.elements_stored.saturating_sub(earlier.elements_stored),
            completion_interrupts: self
                .completion_interrupts
                .saturating_sub(earlier.completion_interrupts),
            exceptions: self.exceptions.saturating_sub(earlier.exceptions),
            comm_ns: self.comm_ns.saturating_sub(earlier.comm_ns),
            comm_hidden_ns: self.comm_hidden_ns.saturating_sub(earlier.comm_hidden_ns),
        }
    }

    /// Merge another node's counters (for system totals).
    pub fn absorb(&mut self, other: &PerfCounters) {
        self.cycles = self.cycles.max(other.cycles); // parallel nodes overlap
        self.instructions += other.instructions;
        self.flops += other.flops;
        self.elements_streamed += other.elements_streamed;
        self.elements_stored += other.elements_stored;
        self.completion_interrupts += other.completion_interrupts;
        self.exceptions += other.exceptions;
        self.comm_ns = self.comm_ns.max(other.comm_ns); // messages overlap too
        self.comm_hidden_ns = self.comm_hidden_ns.max(other.comm_hidden_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mflops_math() {
        let c = PerfCounters { cycles: 20_000_000, flops: 640_000_000, ..Default::default() };
        // 1 second at 20 MHz with 640M flops = 640 MFLOPS = peak.
        assert!((c.seconds(20_000_000) - 1.0).abs() < 1e-12);
        assert!((c.mflops(20_000_000) - 640.0).abs() < 1e-9);
        assert!((c.efficiency(20_000_000, 640.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_mflops() {
        assert_eq!(PerfCounters::default().mflops(20_000_000), 0.0);
    }

    #[test]
    fn since_returns_the_per_run_delta() {
        let before = PerfCounters { cycles: 100, flops: 50, instructions: 2, ..Default::default() };
        let after = PerfCounters { cycles: 180, flops: 90, instructions: 5, ..Default::default() };
        let delta = after.since(&before);
        assert_eq!(delta.cycles, 80);
        assert_eq!(delta.flops, 40);
        assert_eq!(delta.instructions, 3);
        assert_eq!(before.since(&after).cycles, 0, "reversed snapshots saturate");
    }

    #[test]
    fn absorb_overlaps_time_and_sums_work() {
        let mut a = PerfCounters { cycles: 100, flops: 50, instructions: 1, ..Default::default() };
        let b = PerfCounters { cycles: 120, flops: 70, instructions: 2, ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.cycles, 120, "parallel nodes: elapsed time is the max");
        assert_eq!(a.flops, 120, "work adds");
        assert_eq!(a.instructions, 3);
    }

    #[test]
    fn comm_time_overlaps_across_nodes_and_adds_sequentially() {
        // 500 ns and then 300 ns of messages on one node.
        let mut a = PerfCounters { cycles: 100, comm_ns: 800, ..Default::default() };
        let first = PerfCounters { comm_ns: 500, ..Default::default() };
        assert_eq!(a.since(&first).comm_ns, 300, "sequential messages add");
        a.absorb(&PerfCounters { comm_ns: 2_000, ..Default::default() });
        assert_eq!(a.comm_ns, 2_000, "concurrent nodes overlap their messages");
        // 100 cycles at 20 MHz = 5 us compute, plus 2 us of messages.
        assert!((a.seconds_with_comm(20_000_000) - 7e-6).abs() < 1e-12);
        let delta = a.since(&PerfCounters { comm_ns: 1_500, ..Default::default() });
        assert_eq!(delta.comm_ns, 500);
    }

    #[test]
    fn hidden_comm_does_not_extend_the_wall_clock() {
        // 100 cycles at 20 MHz = 5 us compute; 2 us of messages, 1.5 us of
        // which overlapped the compute: only 0.5 us extends the clock.
        let c = PerfCounters {
            cycles: 100,
            comm_ns: 2_000,
            comm_hidden_ns: 1_500,
            ..Default::default()
        };
        assert!((c.seconds_with_comm(20_000_000) - 5.5e-6).abs() < 1e-15);
        // A later window hides all of a further 300 ns message.
        let a = PerfCounters { comm_ns: 2_300, comm_hidden_ns: 1_800, ..c };
        let d = a.since(&c);
        assert_eq!((d.comm_ns, d.comm_hidden_ns), (300, 300));
        assert_eq!(a.seconds_with_comm(20_000_000), c.seconds_with_comm(20_000_000));
    }
}
