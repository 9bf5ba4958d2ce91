//! Host-side measurement: the wall clock, resident memory, the yardstick
//! kernel every run time is divided by, and the order statistics every
//! reported host number goes through.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The host wall clock. Only host costs (what the simulator takes to run)
/// are read from it; simulated quantities come from the program's reports.
pub fn now() -> Instant {
    // simlint: allow(no-ambient-time) — the benchmark's job is timing the simulator in host seconds
    Instant::now()
}

/// Seconds since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call of `f`, returning its result and its host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = now();
    let out = f();
    (out, secs_since(t))
}

/// Median of a sample (mean of the middle pair when even); NaN when
/// empty, which the final check reports as a failure.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// This process's peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Pending events of the yardstick's queue.
const YARDSTICK_PENDING: u64 = 20_000;
/// Events the yardstick processes per timing.
const YARDSTICK_STEPS: u64 = 150_000;
/// Slots of the yardstick's state table (4 MiB of `u64`).
const YARDSTICK_SLOTS: usize = 1 << 19;
/// Passes of the yardstick's branch loop over its byte table.
const YARDSTICK_PASSES: usize = 20;
/// Rounds of the yardstick's eight independent multiply-add chains.
const YARDSTICK_ROUNDS: u64 = 5_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The yardstick: a fixed stand-in for the simulator's host cost, a
/// binary-heap event loop whose events update random slots of a 4 MiB
/// table, then a loop of unpredictable branches over a 64 KiB table, then
/// eight independent multiply-add chains (which slow down when another
/// thread shares the core's execution units). It is the benchmark's own
/// code, so no change to the program moves it; timed next to a simulator
/// run, it tracks how much the machine's other load is slowing both.
pub struct Yardstick {
    slots: Vec<u64>,
    bytes: Vec<u8>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x = 0x2545_F491_4F6C_DD1D;
        Yardstick {
            slots: vec![0; YARDSTICK_SLOTS],
            bytes: (0..1 << 16).map(|_| xorshift(&mut x) as u8).collect(),
        }
    }

    /// Host seconds of one pass of the kernel.
    pub fn secs(&mut self) -> f64 {
        let (out, s) = timed(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = (0..YARDSTICK_PENDING)
                .map(|id| Reverse((xorshift(&mut x) % 1_000_000, id)))
                .collect();
            let mask = self.slots.len() as u64 - 1;
            for _ in 0..YARDSTICK_STEPS {
                let Some(Reverse((at, id))) = heap.pop() else {
                    break;
                };
                let r = xorshift(&mut x);
                let slot = &mut self.slots[((r ^ id) & mask) as usize];
                *slot = slot.wrapping_add(at);
                heap.push(Reverse((at + r % 1000, id)));
            }
            let mut sum = 0u64;
            for _ in 0..YARDSTICK_PASSES {
                for &b in &self.bytes {
                    if b < 128 {
                        sum = sum.wrapping_add(u64::from(b));
                    } else {
                        sum ^= xorshift(&mut x);
                    }
                }
            }
            let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
            for i in 0..YARDSTICK_ROUNDS {
                for (k, lane) in lanes.iter_mut().enumerate() {
                    *lane = lane.wrapping_mul(3).wrapping_add(i ^ k as u64);
                }
                black_box(&lanes);
            }
            (heap.len(), sum, lanes)
        });
        black_box(out);
        s
    }
}

/// The machine's calibration score: host ns per event of the yardstick,
/// median of five passes. Dividing a host time by it gives a number that
/// compares across boxes.
pub fn calibration_ns(yardstick: &mut Yardstick) -> f64 {
    let reps: Vec<f64> = (0..5).map(|_| yardstick.secs()).collect();
    median(&reps) * 1e9 / YARDSTICK_STEPS as f64
}
