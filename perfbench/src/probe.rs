//! Layer probes: small loads pushed through one layer's public functions,
//! so that layer's cost can be read without the rest of the simulator.

use std::hint::black_box;

use palladium_simnet::{
    run_sharded, Effects, Engine, Execution, Harness, Nanos, OpenLoop, Outbox, ShardConfig,
    ShardEngine,
};

use crate::host::{median, timed};
use crate::workload::{overload_config, Workload, OVERLOAD_SHARDS};

/// Timings per probe; each probe reports the median.
const PROBE_REPS: usize = 5;

/// Events per harness probe timing.
const HARNESS_PROBE_EVENTS: u64 = 1_000_000;
/// Pending events kept by the deep probe: well past the adaptive queue's
/// heap-to-wheel threshold, like `chain_closed`'s pending set.
pub const DEEP_PENDING: usize = 4096;
/// Pending events kept by the shallow probe: under the threshold, where
/// the queue stays a heap, like the Fig 13 ingress sweep's.
pub const SHALLOW_PENDING: usize = 64;

/// A minimal engine: every event schedules one successor at a
/// pseudo-random delay, so the pending set stays at its initial depth
/// until the event budget runs out.
struct Relay {
    lcg: u64,
    left: u64,
}

impl Engine for Relay {
    type Ev = u32;

    fn on_event(&mut self, _now: Nanos, ev: u32, fx: &mut Effects<'_, u32>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // Delays of 100 ns – 50 µs, the span of the drivers' timers.
        fx.after(Nanos(100 + (self.lcg >> 33) % 50_000), ev);
    }
}

/// Host nanoseconds per event of [`Harness::run`] with `pending` events
/// in flight.
pub fn harness_ns_per_event(pending: usize) -> f64 {
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let mut harness = Harness::new();
            for i in 0..pending {
                harness.schedule_at(Nanos(i as u64), i as u32);
            }
            let mut relay = Relay {
                lcg: 0x5EED,
                left: HARNESS_PROBE_EVENTS,
            };
            let (events, s) = timed(|| harness.run(&mut relay, Nanos::MAX));
            black_box(&relay);
            s * 1e9 / events as f64
        })
        .collect();
    median(&reps)
}

/// A shard engine that never has an event: a run of it is the barrier
/// protocol alone.
struct Idle;

impl ShardEngine for Idle {
    type Ev = ();
    type Msg = ();

    fn on_event(&mut self, _: Nanos, _: (), _: &mut Effects<'_, ()>, _: &mut Outbox<()>) {}

    fn lift(&mut self, _: Nanos, _: u32, _: ()) {}
}

/// Simulated time of one barrier probe timing.
const BARRIER_PROBE_HORIZON: Nanos = Nanos::from_millis(10);

/// Host nanoseconds per barrier of [`run_sharded`] at `overload_sharded`'s
/// window, stride and shard count, threads as in the workload.
pub fn shard_barrier_ns() -> f64 {
    let cfg = overload_config(0, Workload::OverloadSharded.horizon());
    let shard_cfg = ShardConfig::new(OVERLOAD_SHARDS, cfg.window())
        .stride(cfg.stride)
        .execution(Execution::Threads);
    let reps: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let engines = (0..OVERLOAD_SHARDS).map(|_| Idle).collect();
            let (run, s) =
                timed(|| run_sharded(&shard_cfg, engines, |_, _| {}, BARRIER_PROBE_HORIZON));
            s * 1e9 / run.windows as f64
        })
        .collect();
    median(&reps)
}

/// Replays `overload_sharded`'s arrival stream for `seed` through
/// [`OpenLoop::next_arrival`]: the arrivals inside the horizon (the count
/// the cluster must report as offered) and host nanoseconds per arrival.
pub fn openloop_replay(seed: u64) -> (u64, f64) {
    let cfg = overload_config(seed, Workload::OverloadSharded.horizon());
    let traffic = cfg
        .overload
        .as_ref()
        .expect("overload_sharded is open-loop")
        .traffic;
    let horizon = cfg.duration;
    let mut arrivals = 0;
    let reps: Vec<f64> = (0..4 * PROBE_REPS)
        .map(|_| {
            let ((n, drawn), s) = timed(|| {
                let mut gen = OpenLoop::new(&traffic, seed);
                let (mut n, mut drawn) = (0u64, 0u64);
                loop {
                    let a = black_box(gen.next_arrival());
                    drawn += 1;
                    if a.at > horizon {
                        break (n, drawn);
                    }
                    n += 1;
                }
            });
            arrivals = n;
            s * 1e9 / drawn as f64
        })
        .collect();
    (arrivals, median(&reps))
}
