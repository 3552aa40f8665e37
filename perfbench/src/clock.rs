//! Timing helpers: a lap clock whose reads are corrected for their own
//! cost, medians, and the process's peak resident set.

use std::time::{Duration, Instant};

/// A running clock read once per layer boundary. Each lap is the time
/// since the previous read, minus the measured cost of one read, so
/// chained laps over many short calls add up to the time the calls took.
pub struct Clock {
    last: Instant,
    read_ns: f64,
}

impl Clock {
    /// Starts the clock after measuring what one `Instant::now` costs on
    /// this host (median of many back-to-back reads).
    pub fn start() -> Clock {
        let mut deltas: Vec<f64> = (0..64)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..1000 {
                    std::hint::black_box(Instant::now());
                }
                t0.elapsed().as_nanos() as f64 / 1001.0
            })
            .collect();
        Clock {
            last: Instant::now(),
            read_ns: median(&mut deltas),
        }
    }

    /// Nanoseconds since the previous lap (or start), read cost removed.
    #[inline]
    pub fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as f64 - self.read_ns;
        self.last = now;
        ns
    }
}

/// Runs `f` and returns its result with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`, Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}
