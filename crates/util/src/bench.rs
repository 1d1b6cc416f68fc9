//! A small wall-clock timer for the bench recorder: warm-up, then timed
//! samples, reduced to median/mean/min.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Median, mean and minimum of one [`time_with_setup`] run's samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Median sample.
    pub median: Duration,
    /// Mean sample.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
}

/// Builds a fresh input with `setup` and calls `f` on it until `warmup`
/// has elapsed, then times `samples` calls (at least one). Each sample's
/// input is built before its clock starts and dropped after it stops:
/// only `f` itself is timed.
///
/// Each sample is one call of `f`; wrap multi-iteration loops yourself
/// when a single call is too fast to time (sub-microsecond).
pub fn time_with_setup<T>(
    samples: usize,
    warmup: Duration,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(&mut T),
) -> Timing {
    let start = Instant::now();
    while start.elapsed() < warmup {
        f(&mut setup());
    }
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let mut input = setup();
            let t = Instant::now();
            f(&mut input);
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    Timing {
        median: times[times.len() / 2],
        mean: times.iter().sum::<Duration>() / times.len() as u32,
        min: times[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_median() {
        let t = time_with_setup(
            3,
            Duration::ZERO,
            || (),
            |_| {
                black_box((0..1000u64).sum::<u64>());
            },
        );
        assert!(t.median > Duration::ZERO);
        assert!(t.min <= t.median);
    }

    #[test]
    fn setup_runs_once_per_call_outside_the_clock() {
        let (mut built, mut ran) = (0, 0);
        let t = time_with_setup(
            3,
            Duration::ZERO,
            || {
                built += 1;
                std::thread::sleep(Duration::from_millis(20));
                vec![1u64; 1000]
            },
            |v| {
                ran += 1;
                black_box(v.iter().sum::<u64>());
            },
        );
        assert_eq!((built, ran), (3, 3));
        assert!(t.median < Duration::from_millis(20), "setup was timed");
    }
}
