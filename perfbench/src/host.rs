//! Host speed reference.
//!
//! On a shared host the speed of one core changes by up to 1.7x within
//! seconds as neighbours come and go, and the host stops the whole VM for
//! a few milliseconds at a time (measured on a 2-core shared VM: wall-clock
//! gaps of 2–9 ms in which the process ran for under 1 ms). Both move a
//! run's timings far more than the code does. The benchmark therefore
//! counts the process's CPU time, which excludes the stops, and times a
//! fixed reference computation of its own — Box–Muller normals and a
//! d48 x d192 f32 vector-matrix product, the mix an analog tile forward
//! runs — between pieces of measured work, scaling each stretch of CPU time
//! to a host on which that reference takes [`NOMINAL_SLICE_S`]: a dedicated
//! core at nominal speed. The reference is part of the benchmark, not of
//! the program, so a change to the program cannot move it: a program made
//! faster reads faster.

use std::time::Instant;

use crate::stats::median;

/// Reference slice time of the nominal host (seconds). Near this host's
/// usual figure, so scaled values stay close to the raw ones.
pub const NOMINAL_SLICE_S: f64 = 6.25e-5;
/// Slices per reading. The reading takes their median, so that an
/// interruption of the host landing in one slice does not skew it.
const SLICES: usize = 3;

const D_IN: usize = 48;
const D_OUT: usize = 192;
const SAMPLES: usize = 1024;

/// One reference slice: Box–Muller normals from an xorshift generator,
/// pushed through a fixed vector-matrix product. Returns its wall time.
fn slice() -> f64 {
    let t = Instant::now();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let w: Vec<f32> = (0..D_IN * D_OUT).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut x = vec![0.0f32; SAMPLES];
    let mut y = vec![0.0f32; D_OUT];
    for pair in x.chunks_mut(2) {
        let r = (-2.0 * (1.0 - next()).ln()).sqrt();
        let theta = std::f64::consts::TAU * next();
        pair[0] = (r * theta.cos()) as f32;
        pair[1] = (r * theta.sin()) as f32;
    }
    for row in x.chunks_exact(D_IN) {
        for (&xi, w_row) in row.iter().zip(w.chunks_exact(D_OUT)) {
            for (o, &wv) in y.iter_mut().zip(w_row) {
                *o += xi * wv;
            }
        }
    }
    std::hint::black_box(&y);
    t.elapsed().as_secs_f64()
}

/// How often [`Timeline::tick`] takes a reading while work runs.
const CADENCE_S: f64 = 0.002;

/// CPU time of this process, all threads (seconds), or `None` where the
/// clock is not available.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_seconds() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (which std links on
    // Linux); `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_seconds() -> Option<f64> {
    None
}

/// A point in time on both clocks.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    /// Process CPU seconds, or wall seconds since an arbitrary origin where
    /// CPU time is not available.
    cpu: f64,
}

impl Mark {
    fn now(origin: Instant) -> Self {
        let at = Instant::now();
        let cpu = cpu_seconds().unwrap_or_else(|| at.duration_since(origin).as_secs_f64());
        Self { at, cpu }
    }
}

/// A stretch of the timeline: measured work, or a speed reading.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: Instant,
    end: Instant,
    /// CPU seconds the process spent in the stretch.
    cpu: f64,
    /// `Some(speed)` for a reading: the speed it found relative to the
    /// nominal host (2 means the reference ran twice as fast).
    reading: Option<f64>,
}

/// The measured work of a round, cut into stretches by calls to
/// [`Timeline::tick`], with host-speed readings between them, so that any
/// interval of the work converts to nominal-host seconds.
#[derive(Debug)]
pub struct Timeline {
    origin: Instant,
    segments: Vec<Segment>,
    last: Mark,
    last_reading: Instant,
}

impl Timeline {
    /// A timeline with its first reading taken now.
    pub fn new() -> Self {
        let origin = Instant::now();
        let mut timeline = Self {
            origin,
            segments: Vec::new(),
            last: Mark::now(origin),
            last_reading: origin,
        };
        timeline.read();
        timeline
    }

    /// Closes the stretch since the last mark.
    fn mark(&mut self, reading: Option<f64>) {
        let now = Mark::now(self.origin);
        self.segments.push(Segment {
            start: self.last.at,
            end: now.at,
            cpu: now.cpu - self.last.cpu,
            reading,
        });
        self.last = now;
    }

    /// Takes a reading now.
    pub fn read(&mut self) {
        self.mark(None);
        let slices: Vec<f64> = (0..SLICES).map(|_| slice()).collect();
        self.mark(Some(NOMINAL_SLICE_S / median(&slices)));
        self.last_reading = self.last.at;
    }

    /// Ends a piece of work, and takes a reading if the last one is older
    /// than the cadence. Call it between pieces of work.
    pub fn tick(&mut self) {
        if self.last_reading.elapsed().as_secs_f64() >= CADENCE_S {
            self.read();
        } else {
            self.mark(None);
        }
    }

    /// Speed of each segment: a reading's own, and for work the geometric
    /// mean of the readings on either side of it.
    fn speeds(&self) -> Vec<f64> {
        let mut before = vec![None; self.segments.len()];
        let mut after = vec![None; self.segments.len()];
        let mut seen = None;
        for (i, s) in self.segments.iter().enumerate() {
            seen = s.reading.or(seen);
            before[i] = seen;
        }
        seen = None;
        for (i, s) in self.segments.iter().enumerate().rev() {
            seen = s.reading.or(seen);
            after[i] = seen;
        }
        before
            .into_iter()
            .zip(after)
            .map(|(b, a)| match (b, a) {
                (Some(b), Some(a)) => (a * b).sqrt(),
                (Some(s), None) | (None, Some(s)) => s,
                (None, None) => 1.0,
            })
            .collect()
    }

    /// Share of segment `s` that lies in `[a, b]`, by wall time.
    fn overlap(s: &Segment, a: Instant, b: Instant) -> f64 {
        let span = s.end.saturating_duration_since(s.start).as_secs_f64();
        let inside = b
            .min(s.end)
            .saturating_duration_since(a.max(s.start))
            .as_secs_f64();
        if span > 0.0 {
            inside / span
        } else {
            0.0
        }
    }

    /// Nominal-host seconds of the work done in each interval: the CPU time
    /// of every stretch of work it covers, times the stretch's speed.
    /// Readings do not count. Call it once the work has ended with a final
    /// reading.
    pub fn nominal(&self, intervals: &[(Instant, Instant)]) -> Vec<f64> {
        let speeds = self.speeds();
        intervals
            .iter()
            .map(|&(a, b)| {
                let first = self.segments.partition_point(|s| s.end <= a);
                self.segments[first..]
                    .iter()
                    .zip(&speeds[first..])
                    .take_while(|(s, _)| s.start < b)
                    .filter(|(s, _)| s.reading.is_none())
                    .map(|(s, speed)| Self::overlap(s, a, b) * s.cpu * speed)
                    .sum()
            })
            .collect()
    }

    /// Wall seconds of `[a, b]` not spent taking readings.
    pub fn wall(&self, a: Instant, b: Instant) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.reading.is_none())
            .map(|s| {
                b.min(s.end)
                    .saturating_duration_since(a.max(s.start))
                    .as_secs_f64()
            })
            .sum()
    }

    /// Median speed of the readings.
    pub fn median_speed(&self) -> f64 {
        median(
            &self
                .segments
                .iter()
                .filter_map(|s| s.reading)
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn segment(
        origin: Instant,
        start_ms: u64,
        end_ms: u64,
        cpu_ms: f64,
        reading: Option<f64>,
    ) -> Segment {
        Segment {
            start: origin + Duration::from_millis(start_ms),
            end: origin + Duration::from_millis(end_ms),
            cpu: cpu_ms * 1e-3,
            reading,
        }
    }

    #[test]
    fn nominal_time_is_cpu_time_at_the_surrounding_speed() {
        let o = Instant::now();
        let ms = |v: u64| o + Duration::from_millis(v);
        let t = Timeline {
            origin: o,
            segments: vec![
                segment(o, 0, 1, 1.0, Some(1.0)),
                // 10 ms of wall, of which the host ran the process for 6.
                segment(o, 1, 11, 6.0, None),
                segment(o, 11, 12, 1.0, Some(4.0)),
                segment(o, 12, 22, 10.0, None),
                segment(o, 22, 23, 1.0, Some(4.0)),
            ],
            last: Mark::now(o),
            last_reading: o,
        };
        // Speeds: sqrt(1 * 4) = 2 for the first stretch, 4 for the second.
        let got = t.nominal(&[(ms(0), ms(30)), (ms(6), ms(17))]);
        assert!((got[0] - (0.012 + 0.040)).abs() < 1e-9, "{got:?}");
        assert!((got[1] - (0.006 + 0.020)).abs() < 1e-9, "{got:?}");
        // Readings take no wall time of the work.
        assert!((t.wall(ms(0), ms(23)) - 0.020).abs() < 1e-9);
    }

    #[test]
    fn readings_are_positive() {
        let mut t = Timeline::new();
        t.tick();
        t.read();
        assert!(t.median_speed().is_finite() && t.median_speed() > 0.0);
        let a = t.segments[0].start;
        assert!(t.nominal(&[(a, Instant::now())])[0] >= 0.0);
    }
}
