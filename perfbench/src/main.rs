//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <chain_closed|overload_sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public driver APIs for about `--seconds`
//! host seconds, checks the simulated outputs, and prints a readable report
//! followed by one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones,
//! measured from untraced runs; with `--trace 1` they are the per-layer
//! ones, from a run with spans around every call into the program plus
//! layer probes.
//! `attempted` counts simulator runs and `failed` the runs whose outputs
//! failed a check. Any failed check makes the exit code non-zero. See
//! `README.md` beside this crate for the metric definitions.

mod host;
mod probe;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use palladium_simnet::Nanos;

use host::{median, timed, Yardstick};
use trace::Tracer;
use workload::{Outcome, Sharding, SimOut, Workload};

/// Timed repetitions per block of runs, whatever `--seconds` allows.
const MIN_REPS: usize = 3;
/// Rounds of set-up repetitions in the traced run, about as many as an
/// untraced run interleaves with its timed runs.
const TRACED_SETUP_ROUNDS: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Full runs: each one's outcome and host seconds.
type Runs = Vec<(Outcome, f64)>;

struct Bench {
    w: Workload,
    seed: u64,
    seconds: f64,
    tr: Tracer,
    /// The fixed kernel every timed run is measured against.
    yardstick: Yardstick,
    /// The first full run's simulated outputs; every later run must match.
    reference: Option<SimOut>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Bench {
    fn new(args: &Args) -> Bench {
        Bench {
            w: args.workload,
            seed: args.seed,
            seconds: args.seconds,
            tr: Tracer::new(args.workload.name(), false),
            yardstick: Yardstick::new(),
            reference: None,
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// One run over the full horizon, timed from outside (so a traced
    /// run's time includes its spans), with its outputs checked.
    fn full_run(&mut self, sharding: Sharding) -> (Outcome, f64) {
        let (w, seed) = (self.w, self.seed);
        let tr = &mut self.tr;
        let (out, secs) = timed(|| workload::run(w, seed, w.horizon(), sharding, tr));
        self.attempted += 1;
        let mut bad = workload::check(w, &out.sim);
        match &self.reference {
            None => self.reference = Some(out.sim.clone()),
            Some(r) if *r != out.sim => bad.push(format!(
                "{}: seed {} ({} shard(s), {:?}, tracing {}) diverged from the first run:\n  \
                 first {r:?}\n  this  {:?}",
                w.name(),
                seed,
                sharding.shards,
                sharding.execution,
                if self.tr.enabled() { "on" } else { "off" },
                out.sim
            )),
            Some(_) => {}
        }
        self.fail(bad);
        (out, secs)
    }

    fn fail(&mut self, bad: Vec<String>) {
        if !bad.is_empty() {
            self.failed += 1;
            self.failures.extend(bad);
        }
    }

    /// Full runs under `sharding` until `seconds` have passed (at least
    /// [`MIN_REPS`]): each run's outcome and host seconds.
    fn timed_reps(&mut self, seconds: f64, sharding: Sharding) -> Runs {
        let start = host::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || host::secs_since(start) < seconds {
            reps.push(self.full_run(sharding));
        }
        reps
    }

    /// This process's peak resident set in KiB so far; NaN, and a failed
    /// check, if it cannot be read.
    fn peak_rss_kib(&mut self) -> f64 {
        match host::peak_rss_kib() {
            Ok(kib) => kib as f64,
            Err(e) => {
                self.fail(vec![e]);
                f64::NAN
            }
        }
    }

    /// Set-up timings: preset, driver construction and a zero-horizon run,
    /// repeated `n` times; each repetition's host seconds.
    fn setup_reps(&mut self, n: usize) -> Vec<f64> {
        let (w, seed) = (self.w, self.seed);
        (0..n)
            .map(|_| {
                let tr = &mut self.tr;
                let (_, s) = timed(|| workload::run(w, seed, Nanos::ZERO, Sharding::TIMED, tr));
                self.attempted += 1;
                s
            })
            .collect()
    }

    /// `overload_sharded`'s arrival cross-check: the arrival stream
    /// replayed through the generator must hold exactly the requests the
    /// cluster reports as offered.
    fn check_arrivals(&mut self, arrivals: u64) {
        let offered = self.reference.as_ref().map_or(0, |r| r.overload.offered);
        if arrivals != offered {
            self.fail(vec![format!(
                "overload_sharded: replayed {arrivals} arrivals in the horizon, cluster offered {offered}"
            )]);
        }
    }

    fn untraced(&mut self) -> Vec<Metric> {
        // The reference run, untimed: the outputs every later run must match.
        let (first, _) = self.full_run(Sharding::TIMED);
        // Each timed run follows a round of set-up repetitions, so both
        // medians sample the whole invocation rather than one stretch of it,
        // and is divided by the mean of the yardstick's passes just
        // before and after it.
        let (mut setup, mut times, mut rel) = (Vec::new(), Vec::new(), Vec::new());
        let mut before = self.yardstick.secs();
        let start = host::now();
        while times.len() < MIN_REPS || host::secs_since(start) < self.seconds {
            setup.extend(self.setup_reps(self.w.setup_reps()));
            let run = self.full_run(Sharding::TIMED).1;
            let after = self.yardstick.secs();
            rel.push(run / ((before + after) / 2.0));
            times.push(run);
            before = after;
        }
        let peak_mb = self.peak_rss_kib() / 1024.0;
        if self.w == Workload::OverloadSharded {
            // Outside the timed runs: the arrival replay, and a threaded
            // 2-shard run that must match the serial ones in every
            // simulated field.
            self.check_arrivals(probe::openloop_replay(self.seed).0);
            self.full_run(Sharding::THREADED);
        }
        let s = &first.sim;
        let horizon_s = self.w.horizon().as_secs_f64();
        report_lines(self.w, s, &times);
        println!(
            "  run_s median {:.6}, run_rel median {:.6} ({} runs)",
            median(&times),
            median(&rel),
            rel.len()
        );
        // Other load on the machine comes in waves of seconds to a minute
        // and slows a run by up to 1.75×. It slows the yardstick beside it
        // too, so the ratio moves far less between invocations than the
        // run's own time (which the report above prints).
        vec![
            ("run_rel", median(&rel), "ratio"),
            ("setup_s", median(&setup), "s"),
            ("peak_rss_mb", peak_mb, "MB"),
            ("sim_mean_us", s.mean_ns as f64 / 1e3, "sim_us"),
            ("sim_p99_us", s.p99_ns as f64 / 1e3, "sim_us"),
            ("sim_goodput_rps", s.goodput as f64 / horizon_s, "sim_req/s"),
            ("ok_ratio", s.goodput as f64 / s.offered as f64, "fraction"),
        ]
    }

    fn traced(&mut self) -> Vec<Metric> {
        let w = self.w;
        let sharded = w == Workload::OverloadSharded;

        // Set-up, traced: split into preset and build (driver construction
        // plus the zero-horizon run).
        self.tr.set_enabled(true);
        let mark = self.tr.spans().len();
        self.setup_reps(TRACED_SETUP_ROUNDS * w.setup_reps());
        let (preset_s, build_s) = setup_split(self.tr.spans(), mark);
        let base_kib = self.peak_rss_kib();

        // Untraced then traced full runs in the timed configuration, over
        // the same budget each, then (sharded only) a block of traced
        // threaded runs for the shard figures.
        let blocks = if sharded { 3.0 } else { 2.0 };
        let budget = self.seconds / blocks;
        self.tr.set_enabled(false);
        let plain = self.timed_reps(budget, Sharding::TIMED);
        self.tr.set_enabled(true);
        let mark = self.tr.spans().len();
        let reps = self.timed_reps(budget, Sharding::TIMED);
        let peak_kib = self.peak_rss_kib();
        let threaded = match sharded {
            true => self.timed_reps(budget, Sharding::THREADED),
            false => Vec::new(),
        };
        // One span of each name per run, in run order.
        let run_spans = span_secs(&self.tr.spans()[mark..], "run");
        let threaded_spans = span_secs(&self.tr.spans()[mark..], "run.threaded");

        let deep = self.tr.span("probe.harness_deep", |_| {
            probe::harness_ns_per_event(probe::DEEP_PENDING)
        });
        let shallow = self.tr.span("probe.harness_shallow", |_| {
            probe::harness_ns_per_event(probe::SHALLOW_PENDING)
        });
        let barrier = self
            .tr
            .span("probe.shard_barrier", |_| probe::shard_barrier_ns());
        let seed = self.seed;
        let (arrivals, per_arrival) = self
            .tr
            .span("probe.openloop", |_| probe::openloop_replay(seed));
        if sharded {
            self.check_arrivals(arrivals);
        }
        self.write_spans();

        let secs = |times: Vec<f64>| median(&times);
        let plain_s = secs(plain.iter().map(|r| r.1).collect());
        let traced_s = secs(reps.iter().map(|r| r.1).collect());
        // Median over the threaded runs of a sharded-runner figure computed
        // from that run's counters and its `run.threaded` span; 0 on the
        // serial driver.
        let shard_median = |f: &dyn Fn(&workload::ShardOut, f64) -> f64| match sharded {
            true => secs(
                threaded
                    .iter()
                    .zip(&threaded_spans)
                    .map(|((o, _), &run)| f(o.shard.as_ref().expect("sharded run"), run))
                    .collect(),
            ),
            false => 0.0,
        };
        let busy = |x: &workload::ShardOut| x.busy_ns.iter().sum::<u64>() as f64 / 1e9;
        let s = &reps[0].0.sim;
        let (ov, ch) = (&s.overload, &s.chaos);
        let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let mem_per_req = (peak_kib - base_kib) * 1024.0 / s.completed as f64;
        let horizon_ms = w.horizon().as_secs_f64() * 1e3;
        vec![
            ("harness.events", s.events as f64, "count"),
            (
                "harness.events_per_req",
                per(s.events, s.completed),
                "events/req",
            ),
            (
                "harness.ns_per_event",
                median(&run_spans) * 1e9 / s.events as f64,
                "ns",
            ),
            ("harness.probe_deep_ns", deep, "ns"),
            ("harness.probe_shallow_ns", shallow, "ns"),
            (
                "shard.barriers",
                shard_median(&|x, _| x.barriers as f64),
                "count",
            ),
            (
                "shard.barriers_per_sim_ms",
                shard_median(&|x, _| x.barriers as f64 / horizon_ms),
                "1/ms",
            ),
            (
                "shard.mailbox_msgs",
                shard_median(&|x, _| x.messages as f64),
                "count",
            ),
            (
                "shard.spills",
                shard_median(&|x, _| x.spills as f64),
                "count",
            ),
            ("shard.busy_s", shard_median(&|x, _| busy(x)), "s"),
            (
                "shard.barrier_wait_s",
                shard_median(&|x, run| (x.busy_ns.len() as f64 * run - busy(x)).max(0.0)),
                "s",
            ),
            (
                "shard.critical_path_s",
                shard_median(&|x, _| x.critical_path_ns as f64 / 1e9),
                "s",
            ),
            (
                "shard.imbalance",
                shard_median(&|x, _| {
                    let max = x.busy_ns.iter().copied().max().unwrap_or(0) as f64;
                    max * x.busy_ns.len() as f64 / (busy(x) * 1e9).max(1.0)
                }),
                "ratio",
            ),
            (
                "shard.speedup_vs_serial",
                if sharded {
                    traced_s / secs(threaded.iter().map(|r| r.1).collect())
                } else {
                    0.0
                },
                "ratio",
            ),
            ("shard.probe_barrier_ns", barrier, "ns"),
            ("openloop.arrivals", ov.offered as f64, "count"),
            ("openloop.ns_per_arrival", per_arrival, "ns"),
            (
                "ingress.admitted_ratio",
                per(ov.admitted, ov.offered),
                "ratio",
            ),
            (
                "ingress.shed_admission",
                ch.shed_admission as f64,
                "attempts",
            ),
            ("ingress.shed_deadline", ch.shed_deadline as f64, "attempts"),
            ("ingress.shed_breaker", ch.shed_breaker as f64, "attempts"),
            (
                "ingress.retries_per_offered",
                per(ov.retries, ov.offered),
                "ratio",
            ),
            (
                "ingress.retry_exhausted",
                ov.retry_exhausted as f64,
                "requests",
            ),
            ("ingress.breaker_opens", ov.breaker_opens as f64, "count"),
            ("ingress.late", ov.late as f64, "requests"),
            (
                "rdma.dma_bytes_per_req",
                per(s.dma_bytes, s.completed),
                "B/req",
            ),
            ("rdma.rto", ch.rto as f64, "count"),
            ("rdma.fault_drops", ch.fault_drops as f64, "count"),
            ("rdma.shed_qp", ch.shed_qp as f64, "attempts"),
            ("membuf.copy_bytes", s.copy_bytes as f64, "B"),
            ("membuf.copy_ops", s.copy_ops as f64, "count"),
            ("membuf.shed_pool", ch.shed_pool as f64, "attempts"),
            ("dne.dpu_util_pct", s.dpu_util_pct, "%"),
            ("host.cpu_util_pct", s.cpu_util_pct, "%"),
            ("chaos.suspected", ch.suspected as f64, "count"),
            ("chaos.reroutes", ch.reroutes as f64, "count"),
            ("chaos.gray_demoted", ch.gray_demoted as f64, "count"),
            ("stats.samples", s.completed as f64, "count"),
            ("mem.bytes_per_req", mem_per_req, "B/req"),
            ("setup.preset_s", preset_s, "s"),
            ("setup.build_s", build_s, "s"),
            ("trace.overhead_ratio", traced_s / plain_s, "ratio"),
            ("bench.run_wall_s", plain_s, "s"),
        ]
    }

    /// Write every span to `out/trace-<workload>-seed<seed>.jsonl` under
    /// this crate, and print the per-name self times.
    fn write_spans(&mut self) {
        println!("spans (count, total s, self s):");
        for (name, (n, total, own)) in self.tr.self_times() {
            println!("  {name:<22} {n:>5} {total:>12.6} {own:>12.6}");
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.jsonl", self.w.name(), self.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, self.tr.to_json_lines()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => self.fail(vec![format!("writing {path}: {e}")]),
        }
    }
}

/// Durations in seconds of the spans called `name`, in order.
fn span_secs(spans: &[trace::Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(trace::Span::secs)
        .collect()
}

/// Median preset seconds and median build seconds (`new` plus the run)
/// over the set-up repetitions recorded from span `from` on.
fn setup_split(spans: &[trace::Span], from: usize) -> (f64, f64) {
    let mut per_rep: BTreeMap<usize, (f64, f64)> = (from..spans.len())
        .filter(|&i| spans[i].name == "rep")
        .map(|i| (i, (0.0, 0.0)))
        .collect();
    for s in &spans[from..] {
        if let Some(rep) = s.parent.and_then(|p| per_rep.get_mut(&p)) {
            match s.name {
                "preset" => rep.0 += s.secs(),
                "new" | "run" => rep.1 += s.secs(),
                _ => {}
            }
        }
    }
    let (preset, build): (Vec<f64>, Vec<f64>) = per_rep.into_values().unzip();
    (median(&preset), median(&build))
}

/// The readable report of the untraced run: the end-to-end figures with
/// sample counts, including those the JSON line cannot carry for every
/// workload.
fn report_lines(w: Workload, s: &SimOut, times: &[f64]) {
    let horizon_s = w.horizon().as_secs_f64();
    println!(
        "{}: {} runs of {} simulated ms, run_s each {times:.3?}",
        w.name(),
        times.len(),
        horizon_s * 1e3,
    );
    let seed_use = match w.seeded() {
        true => "drives arrivals, retry jitter and fault draws",
        false => "unused: closed loop and fault-free, so outputs do not depend on it",
    };
    println!("  seed: {seed_use}");
    let us = |ns: u64| ns as f64 / 1e3;
    println!(
        "  sim_mean_us      {:>12.3}  ({} samples)",
        us(s.mean_ns),
        s.completed
    );
    match s.p50_ns {
        Some(p) => println!("  sim_p50_us       {:>12.3}", us(p)),
        None => println!(
            "  sim_p50_us       {:>12}  (not in this driver's report)",
            "-"
        ),
    }
    println!(
        "  sim_p99_us       {:>12.3}  ({} samples)",
        us(s.p99_ns),
        s.completed
    );
    match s.p999_ns {
        Some(p) if s.completed >= 10_000 => println!("  sim_p999_us      {:>12.3}", us(p)),
        Some(_) => println!("  sim_p999_us      {:>12}  (< 10 samples beyond it)", "-"),
        None => println!(
            "  sim_p999_us      {:>12}  (not in this driver's report)",
            "-"
        ),
    }
    println!("  sim_goodput_rps  {:>12.1}", s.goodput as f64 / horizon_s);
    let fail = 1.0 - s.goodput as f64 / s.offered as f64;
    if w == Workload::OverloadSharded {
        let ov = &s.overload;
        println!(
            "  fail_ratio       {fail:>12.6}  (1 - goodput {} / offered {}; late {}, retry_exhausted {})",
            ov.goodput, ov.offered, ov.late, ov.retry_exhausted
        );
    } else {
        println!("  fail_ratio       {fail:>12.6}  (0 by construction: closed loop, no deadline)");
    }
    println!("  events           {:>12}", s.events);
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <chain_closed|overload_sharded> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut bench = Bench::new(&args);
    let calibration = host::calibration_ns(&mut bench.yardstick);
    let metrics = if args.trace {
        bench.traced()
    } else {
        bench.untraced()
    };
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            bench.fail(vec![format!(
                "{name} is not a finite number ({value} {unit})"
            )]);
        }
    }
    for f in &bench.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = bench.failures.is_empty();
    println!(
        "info {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"available_parallelism\": {}, \
         \"calibration_ns_per_event\": {calibration}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{}",
        json_line(correct, bench.attempted, bench.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
