//! The two benchmark workloads, driven through the program's public
//! driver APIs, and the simulated outputs read back from their reports.

use palladium_core::driver::chain::{ChainReport, ChainSim, ChainSimConfig};
use palladium_core::driver::cluster_sharded::{
    ChaosReport, ClusterShardedConfig, ClusterShardedReport, ClusterShardedSim, OverloadReport,
};
use palladium_core::system::SystemKind;
use palladium_simnet::{Execution, LoadReport, Nanos, ScenarioScript};
use palladium_workloads::boutique::{self, ChainKind};
use palladium_workloads::openloop::poisson_overload;

use crate::trace::Tracer;

/// Closed-loop clients of `chain_closed` (the Fig 16 load).
const CHAIN_CLIENTS: usize = 40;
/// Offered open-loop rate of `overload_sharded`: 1.4× the ~100k rps knee.
pub const OVERLOAD_RPS: f64 = 140_000.0;
/// Shards of `overload_sharded`'s threaded runs, one per hardware thread
/// of a 2-thread box.
pub const OVERLOAD_SHARDS: usize = 2;
/// The worker node whose ingress port flaps for the whole window.
const FLAP_NODE: usize = 1;
/// Frame drop probability on the flapping port.
const FLAP_DROP: f64 = 0.02;
/// The worker node that crashes for [`CRASH_FROM_MS`]..[`CRASH_UNTIL_MS`]:
/// long enough for the health monitor to suspect it, re-route its pair's
/// requests and pay the rejoin bill when it returns.
const CRASH_NODE: usize = 2;
const CRASH_FROM_MS: u64 = 50;
const CRASH_UNTIL_MS: u64 = 60;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ChainClosed,
    OverloadSharded,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ChainClosed, Workload::OverloadSharded];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainClosed => "chain_closed",
            Workload::OverloadSharded => "overload_sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated window of one run. Every run counts from t = 0 (no
    /// warm-up), so each completion belongs to a counted request.
    pub fn horizon(self) -> Nanos {
        match self {
            Workload::ChainClosed => Nanos::from_millis(500),
            Workload::OverloadSharded => Nanos::from_millis(150),
        }
    }

    /// Whether the seed reaches the simulation. The closed-loop workloads
    /// are fault-free, so their outputs are the same for every seed.
    pub fn seeded(self) -> bool {
        self == Workload::OverloadSharded
    }

    /// Set-up repetitions per round (one round before each timed run):
    /// more where one set-up is cheaper, so the median rests on many
    /// samples without set-up taking over the run.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ChainClosed => 10,
            Workload::OverloadSharded => 5,
        }
    }
}

/// `chain_closed`'s cluster configuration over a simulated `window` (the
/// full horizon, or zero for set-up).
fn chain_config(seed: u64, window: Nanos) -> ChainSimConfig {
    let mut cfg = boutique::config(SystemKind::PalladiumDne, ChainKind::HomeQuery)
        .clients(CHAIN_CLIENTS)
        .warmup_ms(0);
    cfg.duration = window;
    cfg.seed = seed;
    cfg
}

/// `overload_sharded`'s cluster configuration: Poisson arrivals over the
/// 4-pair Fig 16 cluster with one port flapping for the whole horizon and
/// one worker crashing for 10 ms in the middle of it.
pub fn overload_config(seed: u64, window: Nanos) -> ClusterShardedConfig {
    let horizon = Workload::OverloadSharded.horizon();
    let chaos = ScenarioScript::new()
        .flap(FLAP_NODE, FLAP_DROP, Nanos::ZERO, horizon)
        .crash(
            CRASH_NODE,
            Nanos::from_millis(CRASH_FROM_MS),
            Nanos::from_millis(CRASH_UNTIL_MS),
        );
    let mut cfg = poisson_overload(OVERLOAD_RPS).warmup_ms(0).chaos(chaos);
    cfg.duration = window;
    cfg.seed = seed;
    cfg
}

/// How `overload_sharded` is partitioned; ignored by the serial driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sharding {
    pub shards: usize,
    pub execution: Execution,
}

impl Sharding {
    /// The timed configuration: one shard, no threads. The threaded runs'
    /// wall time swings with whatever else holds the machine's two
    /// hardware threads (the spin barrier stalls whenever one shard's
    /// thread is descheduled), so end-to-end times come from here.
    pub const TIMED: Sharding = Sharding {
        shards: 1,
        execution: Execution::Sequential,
    };
    /// One shard per hardware thread: the traced run's shard figures, and
    /// the configuration the timed one must match in every simulated field.
    pub const THREADED: Sharding = Sharding {
        shards: OVERLOAD_SHARDS,
        execution: Execution::Threads,
    };
}

/// Every simulated output the benchmark reads. For a given seed these are
/// deterministic: they must repeat exactly across runs, shard counts and
/// execution modes.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOut {
    pub events: u64,
    pub completed: u64,
    /// Requests offered. In closed loop every issued request that
    /// completes is counted, so this equals `completed`.
    pub offered: u64,
    /// Completions within deadline. In closed loop there is no deadline:
    /// all completions.
    pub goodput: u64,
    pub rps: f64,
    pub mean_ns: u64,
    pub p99_ns: u64,
    /// Only the sharded cluster's report carries the median and p99.9.
    pub p50_ns: Option<u64>,
    pub p999_ns: Option<u64>,
    pub copy_bytes: u64,
    pub copy_ops: u64,
    pub dma_bytes: u64,
    pub cpu_util_pct: f64,
    pub dpu_util_pct: f64,
    pub chaos: ChaosReport,
    pub overload: OverloadReport,
}

/// Host-side counters of the sharded runner. Only `barriers`, `messages`
/// and `spills` are deterministic; the rest are wall times.
#[derive(Clone, Debug)]
pub struct ShardOut {
    pub barriers: u64,
    pub messages: u64,
    pub spills: u64,
    pub busy_ns: Vec<u64>,
    pub critical_path_ns: u64,
}

#[derive(Clone, Debug)]
pub struct Outcome {
    pub sim: SimOut,
    pub shard: Option<ShardOut>,
}

impl Outcome {
    fn from_load(load: &LoadReport, events: u64) -> Outcome {
        Outcome {
            sim: SimOut {
                events,
                completed: load.completed,
                offered: load.completed,
                goodput: load.completed,
                rps: load.rps,
                mean_ns: load.mean_latency.as_nanos(),
                p99_ns: load.p99_latency.as_nanos(),
                p50_ns: None,
                p999_ns: None,
                copy_bytes: 0,
                copy_ops: 0,
                dma_bytes: 0,
                cpu_util_pct: 0.0,
                dpu_util_pct: 0.0,
                chaos: ChaosReport::default(),
                overload: OverloadReport::default(),
            },
            shard: None,
        }
    }

    fn from_chain(r: &ChainReport, events: u64) -> Outcome {
        let mut out = Outcome::from_load(&r.load, events);
        let s = &mut out.sim;
        s.mean_ns = r.mean_latency.as_nanos();
        s.rps = r.rps;
        s.copy_bytes = r.software_copy_bytes;
        s.copy_ops = r.software_copy_ops;
        s.dma_bytes = r.rnic_dma_bytes;
        s.cpu_util_pct = r.cpu_util_pct;
        s.dpu_util_pct = r.dpu_util_pct;
        out
    }

    fn from_sharded(r: &ClusterShardedReport) -> Outcome {
        let mut out = Outcome::from_chain(&r.chain, r.events);
        let s = &mut out.sim;
        s.p50_ns = Some(r.p50.as_nanos());
        s.p99_ns = r.p99.as_nanos();
        s.p999_ns = Some(r.p999.as_nanos());
        s.chaos = r.chaos.clone();
        s.overload = r.overload.clone();
        s.offered = r.overload.offered;
        s.goodput = r.overload.goodput;
        out.shard = Some(ShardOut {
            barriers: r.windows,
            messages: r.messages,
            spills: r.spilled,
            busy_ns: r.busy_ns.clone(),
            critical_path_ns: r.critical_path_ns,
        });
        out
    }
}

/// One run of `workload` over `window`: build the preset, hand it to the
/// driver, run it and read the report, each inside its own span.
pub fn run(
    workload: Workload,
    seed: u64,
    window: Nanos,
    sharding: Sharding,
    tr: &mut Tracer,
) -> Outcome {
    tr.span("rep", |tr| match workload {
        Workload::ChainClosed => {
            let cfg = tr.span("preset", |_| chain_config(seed, window));
            let sim = tr.span("new", |_| ChainSim::new(cfg));
            let (r, events) = tr.span("run", |_| sim.run_counted());
            tr.span("report", |_| Outcome::from_chain(&r, events))
        }
        Workload::OverloadSharded => {
            let cfg = tr.span("preset", |_| overload_config(seed, window));
            let sim = tr.span("new", |_| ClusterShardedSim::new(cfg));
            let name = if sharding == Sharding::TIMED {
                "run"
            } else {
                "run.threaded"
            };
            let r = tr.span(name, |_| sim.run(sharding.shards, sharding.execution));
            tr.span("report", |_| Outcome::from_sharded(&r))
        }
    })
}

/// Checks on one run's simulated outputs that hold for every seed.
pub fn check(workload: Workload, out: &SimOut) -> Vec<String> {
    let mut bad = Vec::new();
    if out.events == 0 || out.completed == 0 {
        bad.push(format!("{}: nothing ran ({out:?})", workload.name()));
    }
    // The paper's zero-copy claim: no software copy on the worker data
    // plane of a Palladium cluster.
    if out.copy_bytes != 0 || out.copy_ops != 0 {
        bad.push(format!(
            "{}: zero-copy broken: {} bytes in {} software copies",
            workload.name(),
            out.copy_bytes,
            out.copy_ops
        ));
    }
    // Request units: with no warm-up every completion belongs to a counted
    // arrival, so the terminal states seen cannot exceed the arrivals.
    let ov = &out.overload;
    if workload == Workload::OverloadSharded
        && ov.goodput + ov.late + ov.retry_exhausted > ov.offered
    {
        bad.push(format!(
            "{}: request counters do not conserve: goodput {} + late {} + retry_exhausted {} > offered {}",
            workload.name(),
            ov.goodput,
            ov.late,
            ov.retry_exhausted,
            ov.offered
        ));
    }
    bad
}
