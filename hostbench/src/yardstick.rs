//! Host-speed normalization. A shared host runs a fixed piece of work
//! faster or slower by up to a third from one phase of seconds or minutes
//! to the next (see `README.md`, "Run-to-run noise"). The yardstick is a
//! fixed piece of the benchmark's own work, independent of the repository,
//! timed between operations; an interval's wall-clock is rescaled by how
//! long the yardstick took around it, so it reads as seconds on a host of
//! fixed speed: one on which a yardstick pass takes [`NOMINAL_PASS_S`].

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Random read-modify-writes per pass, each followed by a dependent
/// floating-point step.
const PASS_ITERS: u32 = 100_000;
/// Words in each thread's buffer: 1 MiB, larger than a core's L1 and L2
/// share on the hosts this was tuned on, so a pass sees the cache and
/// memory contention the workloads see.
const BUFFER_WORDS: usize = 1 << 17;
/// Passes per sample; the sample is their median.
const PASSES_PER_SAMPLE: usize = 5;
/// Least time between two samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(40);
/// The samples nearest an interval's midpoint that set its speed: a few
/// hundred milliseconds around a sub-millisecond operation, a few seconds
/// around a slow one.
const NEAREST: usize = 7;
/// The seconds one pass takes on the reference host (a 2-vCPU Intel Xeon,
/// in a quiet phase), so normalized times read close to its wall-clock.
pub const NOMINAL_PASS_S: f64 = 350e-6;

/// One pass over `buf`: xorshift-addressed read-modify-writes and a
/// dependent multiply-add chain. Returns a value to keep it observable.
fn pass(buf: &mut [u64], salt: u64) -> u64 {
    let mask = buf.len() - 1;
    let mut x = salt | 1;
    let (mut acc, mut f) = (0u64, 1.0f64);
    for _ in 0..PASS_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        buf[i] = buf[i].wrapping_add(x);
        acc ^= buf[i];
        f = f * 0.999_999 + (acc & 0xff) as f64 * 1e-9;
    }
    acc ^ f.to_bits()
}

/// The median seconds of [`PASSES_PER_SAMPLE`] passes over `buf`.
fn timed_passes(buf: &mut [u64], salt: u64) -> f64 {
    let mut t: Vec<f64> = (0..PASSES_PER_SAMPLE as u64)
        .map(|k| {
            let start = Instant::now();
            black_box(pass(buf, salt.wrapping_add(k)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// A timed interval: its midpoint on the run's clock and its wall-clock
/// length, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub mid: f64,
    pub wall: f64,
}

/// The yardstick of one run: the run's clock and the pass times sampled
/// along it.
pub struct Yardstick {
    start: Instant,
    /// One buffer per thread the workload keeps busy; a sample runs one
    /// pass series on each at once and averages them.
    buffers: Vec<Vec<u64>>,
    /// (time on the run's clock, seconds per pass).
    samples: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl Yardstick {
    /// A yardstick that runs on `threads` threads at once (the threads the
    /// workload keeps busy), its clock starting now.
    pub fn new(threads: usize) -> Yardstick {
        Yardstick {
            start: Instant::now(),
            buffers: vec![vec![0; BUFFER_WORDS]; threads.max(1)],
            samples: Vec::new(),
            last: None,
        }
    }

    /// Whether [`SAMPLE_EVERY`] has passed since the last sample.
    pub fn due(&self) -> bool {
        self.last.is_none_or(|t| t.elapsed() >= SAMPLE_EVERY)
    }

    /// Time one sample now.
    pub fn sample(&mut self) {
        let salt = self.samples.len() as u64;
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .enumerate()
                .map(|(i, b)| s.spawn(move || timed_passes(b, salt * 31 + i as u64)))
                .collect();
            handles.into_iter().map(|h| h.join().expect("yardstick thread")).collect()
        });
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        self.samples.push((self.start.elapsed().as_secs_f64(), mean));
        self.last = Some(Instant::now());
    }

    /// The interval from `since` to now, on the run's clock.
    pub fn interval(&self, since: Instant) -> Interval {
        let wall = since.elapsed().as_secs_f64();
        let from = since.saturating_duration_since(self.start).as_secs_f64();
        Interval { mid: from + wall / 2.0, wall }
    }

    /// Seconds per pass around time `t`: the median of the [`NEAREST`]
    /// samples nearest it (samples are in time order).
    fn pass_at(&self, t: f64) -> f64 {
        if self.samples.is_empty() {
            return NOMINAL_PASS_S;
        }
        let i = self.samples.partition_point(|s| s.0 < t);
        let lo = i.saturating_sub(NEAREST);
        let mut near: Vec<(f64, f64)> =
            self.samples[lo..(i + NEAREST).min(self.samples.len())].to_vec();
        near.sort_by(|a, b| (a.0 - t).abs().total_cmp(&(b.0 - t).abs()));
        near.truncate(NEAREST);
        crate::stats::median(&near.iter().map(|x| x.1).collect::<Vec<_>>())
    }

    /// `i`'s length in seconds at the reference speed.
    pub fn normalize(&self, i: Interval) -> f64 {
        i.wall * NOMINAL_PASS_S / self.pass_at(i.mid)
    }

    /// The median seconds per pass over the run.
    pub fn median_pass(&self) -> f64 {
        crate::stats::median(&self.samples.iter().map(|x| x.1).collect::<Vec<_>>())
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_is_deterministic() {
        let (mut a, mut b) = (vec![0; 1 << 10], vec![0; 1 << 10]);
        assert_eq!(pass(&mut a, 5), pass(&mut b, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn intervals_are_rescaled_by_the_passes_around_them() {
        let mut y = Yardstick::new(1);
        assert_eq!(y.normalize(Interval { mid: 1.0, wall: 0.4 }), 0.4);
        // A host at half the reference speed for the first 10 s, at the
        // reference speed after it, sampled every second.
        y.samples =
            (0..20).map(|s| (s as f64, if s < 10 { 2.0 } else { 1.0 } * NOMINAL_PASS_S)).collect();
        let slow = y.normalize(Interval { mid: 3.2, wall: 0.4 });
        assert!((slow - 0.2).abs() < 1e-12);
        let fast = y.normalize(Interval { mid: 15.5, wall: 0.4 });
        assert!((fast - 0.4).abs() < 1e-12);
        // Before the first sample and after the last: the nearest ones.
        assert!((y.normalize(Interval { mid: -1.0, wall: 0.4 }) - 0.2).abs() < 1e-12);
        assert!((y.normalize(Interval { mid: 30.0, wall: 0.4 }) - 0.4).abs() < 1e-12);
        // Across the change the majority of the nearest samples decides.
        let edge = y.normalize(Interval { mid: 9.4, wall: 0.4 });
        assert!((edge - 0.2).abs() < 1e-12);
    }

    #[test]
    fn samples_run_on_every_thread() {
        let mut y = Yardstick::new(2);
        assert!(y.due());
        y.sample();
        assert!(!y.due());
        assert_eq!(y.samples(), 1);
        assert!(y.median_pass() > 0.0);
        let i = y.interval(Instant::now());
        assert!(i.mid >= 0.0 && i.wall >= 0.0);
    }
}
