//! A small wall-clock timer for the bench recorder: warm-up, then timed
//! samples, reduced to median/mean/min.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Median, mean and minimum of one [`time`] run's samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    /// Median sample.
    pub median: Duration,
    /// Mean sample.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
}

/// Calls `f` until `warmup` has elapsed, then times `samples` calls
/// (at least one).
///
/// Each sample is one call of `f`; wrap multi-iteration loops yourself
/// when a single call is too fast to time (sub-microsecond).
pub fn time(samples: usize, warmup: Duration, mut f: impl FnMut()) -> Timing {
    let start = Instant::now();
    while start.elapsed() < warmup {
        f();
    }
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
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
        let t = time(3, Duration::ZERO, || {
            black_box((0..1000u64).sum::<u64>());
        });
        assert!(t.median > Duration::ZERO);
        assert!(t.min <= t.median);
    }
}
