//! The workloads and the phases every run is made of.
//!
//! An untraced run measures, in order: set-up (deploy → first output,
//! repeated), the fixed-rate open-loop phase, the failure drills on the
//! same cluster, and a knee search on fresh clusters. A traced run replays
//! the same fixed-rate schedule twice — untraced, then traced — traces the
//! drills, and runs the durable fan-in twin; the per-layer numbers come
//! from it.
//!
//! Every size, rate and limit below is chosen for a 2-core host; the
//! reasons are recorded in `perfbench/README.md`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tart_engine::{
    Cluster, ClusterConfig, DurabilityPolicy, EngineMetrics, RealClock, StandbyConfig, TimeSource,
    BUFFERED_MAX_RECORDS,
};
use tart_model::AppSpec;
use tart_obs::Histogram;
use tart_stats::DetRng;

use crate::apps::{self, App, Reference, Tally};
use crate::drive::{self, Phase, Target};
use crate::probe::{self, mean, median, percentile, ratio, windowed};
use crate::trace::{SpanId, Tracer, NO_PARENT};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    FaninMem,
    FaninDurable,
    FailoverWarm,
    FailoverCold,
}

impl Workload {
    /// The selectable workloads. `FaninDurable` is the durable twin that
    /// traced runs carry (see [`durable_twin`]), not a workload of its own.
    pub const ALL: [Workload; 3] = [
        Workload::FaninMem,
        Workload::FailoverWarm,
        Workload::FailoverCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FaninMem => "fanin_mem",
            Workload::FaninDurable => "fanin_durable",
            Workload::FailoverWarm => "failover_warm",
            Workload::FailoverCold => "failover_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn plan(self) -> Plan {
        match self {
            Workload::FaninMem => Plan {
                app: App::FanIn,
                durable: false,
                standby: false,
                fixed_rate: 8_000.0,
                drill: Drill::Promote(apps::FANIN_DRILL_ENGINE),
                rounds: 61,
                round_msgs: 200,
                burst: 8,
            },
            Workload::FaninDurable => Plan {
                app: App::FanIn,
                durable: true,
                standby: false,
                fixed_rate: 8_000.0,
                drill: Drill::Restart,
                rounds: 31,
                round_msgs: 200,
                burst: 8,
            },
            Workload::FailoverWarm | Workload::FailoverCold => Plan {
                app: App::Ledger,
                durable: false,
                standby: self == Workload::FailoverWarm,
                fixed_rate: 1_000.0,
                drill: Drill::Promote(apps::LEDGER_ENGINE),
                rounds: 61,
                round_msgs: 96,
                burst: 4,
            },
        }
    }
}

/// How a workload fails and recovers.
#[derive(Clone, Copy)]
enum Drill {
    /// `kill` one engine, send a burst while it is dead, `promote` it.
    Promote(tart_vtime::EngineId),
    /// `crash_with_report` the whole cluster, `recover_from_disk`.
    Restart,
}

struct Plan {
    app: App,
    durable: bool,
    standby: bool,
    /// Offered rate of the fixed-rate phase, msgs/s (10–20% of the knee).
    fixed_rate: f64,
    drill: Drill,
    rounds: usize,
    /// Paced messages before each failure.
    round_msgs: usize,
    /// Messages sent while the failed engine is down.
    burst: usize,
}

/// The p99 limit of the knee search.
const P99_LIMIT: Duration = Duration::from_millis(10);
/// How long after a probe window's last scheduled message the backlog
/// must be (all but 1%) clear. A stall just before the end clears within
/// it; a backlog grown by overload does not, and overload also shows in
/// the window p99s.
const BACKLOG_GRACE: Duration = Duration::from_millis(50);
/// Set-up samples per run (deploy → first output); the median is reported.
const SETUP_REPS: usize = 31;
/// Latency percentiles are taken per window of at least this many
/// messages (so a p99 has ten samples beyond it), and the median over
/// windows is reported.
const WINDOW_MIN: usize = 1_000;
const FIXED_WINDOWS: usize = 30;
const PROBE_WINDOWS: usize = 5;
/// Shares of `--seconds` given to the fixed-rate phase and to each knee
/// probe window.
const FIXED_SHARE: f64 = 0.3;
const PROBE_SHARE: f64 = 0.0167;
/// Knee search: the first probe's rate as a multiple of the fixed rate;
/// probes, of which the last `KNEE_TAIL` are averaged; the first step
/// factor, and the smallest one reversals may halve it to.
const KNEE_START: f64 = 6.0;
const KNEE_PROBES: usize = 20;
const KNEE_TAIL: usize = 12;
const KNEE_STEP: f64 = 1.25;
const KNEE_MIN_STEP: f64 = 1.04;
/// Generous bound on any wait for outputs that must come.
const AWAIT: Duration = Duration::from_secs(30);

/// The run's outcome: named metrics plus the operation counts.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

struct Run {
    workload: Workload,
    plan: Plan,
    seed: u64,
    seconds: f64,
    work_dir: PathBuf,
    deploys: u32,
    attempted: u64,
    failed: u64,
}

/// Checkpoint counters summed over every engine. Cheap to read, so the
/// midpoint of a paced phase can take it without stalling the generator.
fn engine_totals(cluster: &Cluster) -> EngineMetrics {
    let mut total = EngineMetrics::default();
    for m in cluster
        .engine_ids()
        .into_iter()
        .filter_map(|id| cluster.engine_metrics(id))
    {
        total.checkpoints += m.checkpoints;
        total.checkpoint_bytes += m.checkpoint_bytes;
        total.delta_checkpoints += m.delta_checkpoints;
    }
    total
}

fn hist_mean(h: &Histogram) -> f64 {
    ratio(h.sum() as f64, h.count() as f64)
}

/// Per-round recovery timings, ms.
#[derive(Default)]
struct Drills {
    recovery_ms: Vec<f64>,
    call_ms: Vec<f64>,
    first_output_ms: Vec<f64>,
    lost_strict: u64,
    lost_buffered: u64,
}

impl Run {
    fn fresh_dir(&mut self) -> PathBuf {
        self.deploys += 1;
        self.work_dir.join(format!("d{}", self.deploys))
    }

    /// The workload's cluster configuration on `clock`. A restarted
    /// cluster gets its predecessor's clock: a machine's clock does not
    /// start again from zero when the process restarts, and recovery
    /// relies on new sends being stamped after everything logged.
    fn config(
        &self,
        spec: &AppSpec,
        dir: Option<&Path>,
        clock: &Arc<dyn TimeSource>,
    ) -> ClusterConfig {
        let app = self.plan.app;
        let mut config = match dir {
            Some(d) => app.durable_config(spec, d),
            None => app.config(spec),
        };
        config.clock = Arc::clone(clock);
        if self.plan.standby {
            // Tight horizon: the standby applies everything but the newest
            // member, so promotion replays a tail of about one message.
            config = config.with_warm_standby(StandbyConfig {
                trailing_horizon_ticks: 1,
                apply_interval: Duration::from_millis(1),
            });
        }
        config
    }

    /// Deploys a fresh cluster on a fresh real-time clock.
    fn deploy(&self, dir: Option<&Path>) -> Target {
        let app = self.plan.app;
        let spec = app.spec();
        let placement = app.placement(&spec);
        let clock: Arc<dyn TimeSource> = Arc::new(RealClock::new());
        let config = self.config(&spec, dir, &clock);
        let cluster =
            Cluster::deploy(spec, placement, config).expect("the benchmark's clusters deploy");
        Target::new(cluster, app, clock)
    }

    /// Deploys a fresh cluster, durable ones in a fresh directory.
    fn deploy_target(&mut self) -> (Target, Option<PathBuf>) {
        let dir = self.plan.durable.then(|| self.fresh_dir());
        (self.deploy(dir.as_deref()), dir)
    }

    /// Waits for every output still in flight, shuts `target` down, and
    /// books the failed operations against `reference`. Shutting a
    /// durable cluster down with a backlog loses outputs (see README,
    /// "Findings"), so a probe's backlog is drained first.
    fn finish(
        &mut self,
        target: Target,
        dir: Option<PathBuf>,
        tally: &mut Tally,
        reference: &Reference,
    ) {
        let want = reference.sent();
        let mut quiet = Tracer::new(false);
        target.await_until(&mut quiet, NO_PARENT, tally, AWAIT, |t| t.max_seq >= want);
        target.cluster.finish_inputs();
        tally.absorb(target.cluster.shutdown());
        self.attempted += reference.sent();
        let failed = tally.failures(reference);
        if failed > 0 {
            eprintln!(
                "{}: {failed} of {} messages failed the output check",
                self.workload.name(),
                reference.sent()
            );
        }
        self.failed += failed;
        if let Some(d) = dir {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// Deploy → first output, `SETUP_REPS` times; seconds per sample.
    fn setup(&mut self) -> Vec<f64> {
        let mut samples = Vec::with_capacity(SETUP_REPS);
        let mut rng = DetRng::seed_from(self.seed ^ 0x5E7);
        let mut tracer = Tracer::new(false);
        for _ in 0..SETUP_REPS {
            let dir = self.plan.durable.then(|| self.fresh_dir());
            let mut reference = Reference::new(self.plan.app);
            let mut tally = Tally::new(Instant::now());
            let t0 = Instant::now();
            let target = self.deploy(dir.as_deref());
            let payload = self.plan.app.input(&mut rng, 0);
            target.send(&mut tracer, NO_PARENT, &mut reference, 0, payload);
            target.await_until(&mut tracer, NO_PARENT, &mut tally, AWAIT, |t| {
                t.max_seq >= 1
            });
            samples.push(t0.elapsed().as_secs_f64());
            self.finish(target, dir, &mut tally, &reference);
        }
        samples
    }

    fn fixed_schedule(&self) -> Vec<drive::Scheduled> {
        let mut rng = DetRng::seed_from(self.seed);
        drive::schedule(
            self.plan.app,
            &mut rng,
            self.plan.fixed_rate,
            self.seconds * FIXED_SHARE,
            0,
        )
    }

    /// Fails and recovers the cluster `rounds` times, with paced traffic
    /// before each failure and a burst while it is down.
    fn drills(
        &mut self,
        mut target: Target,
        dir: Option<&Path>,
        tally: &mut Tally,
        reference: &mut Reference,
        tracer: &mut Tracer,
    ) -> (Target, Drills) {
        let app = self.plan.app;
        let mut rng = DetRng::seed_from(self.seed ^ 0xD1);
        let mut out = Drills::default();
        for _ in 0..self.plan.rounds {
            let round = tracer.open("drill.round", NO_PARENT);
            let sched = drive::schedule(
                app,
                &mut rng,
                self.plan.fixed_rate,
                self.plan.round_msgs as f64 / self.plan.fixed_rate,
                reference.sent(),
            );
            let base = reference.sent();
            target.play(&sched, base, AWAIT, tally, reference, tracer, round, |_| {});
            if self.plan.standby && !standby_caught_up(&target.cluster) {
                eprintln!("{}: standby never caught up", self.workload.name());
                self.failed += 1;
            }
            if matches!(self.plan.drill, Drill::Restart) {
                // Past one flush window every Buffered record is on disk,
                // so the restart is lossless and the reference stays
                // exact; the crash report still says what was lost.
                std::thread::sleep(apps::FLUSH_WINDOW * 2);
            }
            let seen = tally.max_seq;
            let t0 = Instant::now();
            let t_call;
            match self.plan.drill {
                Drill::Promote(engine) => {
                    tracer.span("kill", round, || target.cluster.kill(engine));
                    self.burst(&target, &mut rng, reference, tracer, round);
                    let (promoted, _) =
                        tracer.span("promote", round, || target.cluster.promote(engine));
                    t_call = Instant::now();
                    if let Err(e) = promoted {
                        eprintln!("{}: promotion failed: {e}", self.workload.name());
                        self.failed += 1;
                        tracer.close(round);
                        return (target, out);
                    }
                }
                Drill::Restart => {
                    let Target { cluster, clock, .. } = target;
                    let ((outs, report), _) =
                        tracer.span("crash_with_report", round, || cluster.crash_with_report());
                    tally.absorb(outs);
                    let spec = app.spec();
                    let d = dir.expect("restart drills run on a durable cluster");
                    let placement = app.placement(&spec);
                    let config = self.config(&spec, Some(d), &clock);
                    let tiers = config.durability.as_ref().expect("durable config");
                    // Strict inputs must never be lost; Buffered ones at
                    // most one flush window per crash.
                    let mut buffered_lost = 0;
                    for (&component, &lost) in &report.lost_inputs {
                        let tier = tiers.tier_for(component, placement.engine_of(component));
                        if tier == Some(DurabilityPolicy::Strict) {
                            out.lost_strict += lost;
                            self.failed += lost;
                        } else {
                            buffered_lost += lost;
                        }
                    }
                    out.lost_buffered += buffered_lost;
                    if buffered_lost > u64::from(BUFFERED_MAX_RECORDS) {
                        self.failed += buffered_lost;
                    }
                    let (recovered, _) = tracer.span("recover_from_disk", round, || {
                        Cluster::recover_from_disk(spec, placement, config)
                    });
                    t_call = Instant::now();
                    match recovered {
                        Ok((cluster, _report)) => target = Target::new(cluster, app, clock),
                        Err(e) => panic!("recover_from_disk failed: {e}"),
                    }
                    self.burst(&target, &mut rng, reference, tracer, round);
                }
            }
            let fresh = target.await_until(tracer, round, tally, AWAIT, |t| t.max_seq > seen);
            let t_first = Instant::now();
            if fresh {
                out.recovery_ms.push((t_first - t0).as_secs_f64() * 1e3);
                out.call_ms.push((t_call - t0).as_secs_f64() * 1e3);
                out.first_output_ms
                    .push((t_first - t_call).as_secs_f64() * 1e3);
            } else {
                eprintln!("{}: no fresh output after recovery", self.workload.name());
                self.failed += 1;
            }
            let want = reference.sent();
            target.await_until(tracer, round, tally, AWAIT, |t| t.max_seq >= want);
            tracer.close(round);
        }
        (target, out)
    }

    fn burst(
        &self,
        target: &Target,
        rng: &mut DetRng,
        reference: &mut Reference,
        tracer: &mut Tracer,
        parent: SpanId,
    ) {
        for _ in 0..self.plan.burst {
            let client = self.plan.app.pick_client(rng);
            let payload = self.plan.app.input(rng, reference.sent());
            target.send(tracer, parent, reference, client, payload);
        }
    }

    /// One knee probe at `rate`: a fresh cluster, a window of paced load.
    /// Passes when p99 meets the limit and the backlog is clear by then.
    fn probe(&mut self, rate: f64, index: u64) -> (bool, f64) {
        let (target, dir) = self.deploy_target();
        let mut rng = DetRng::seed_from(self.seed ^ (0x4E_0000 + index));
        let sched = drive::schedule(self.plan.app, &mut rng, rate, self.seconds * PROBE_SHARE, 0);
        let mut reference = Reference::new(self.plan.app);
        let mut tally = Tally::new(Instant::now());
        let mut tracer = Tracer::new(false);
        let phase = target.play(
            &sched,
            0,
            BACKLOG_GRACE,
            &mut tally,
            &mut reference,
            &mut tracer,
            NO_PARENT,
            |_| {},
        );
        self.finish(target, dir, &mut tally, &reference);
        let p99 = windowed(&phase.latencies_ms, 0.99, WINDOW_MIN, PROBE_WINDOWS);
        let pass = phase.outstanding * 100 <= phase.sent && p99 <= P99_LIMIT.as_secs_f64() * 1e3;
        (pass, phase.send_rate)
    }

    /// The sustainable rate: where half the probes meet the p99 limit
    /// with no backlog left. An up-down staircase from `KNEE_START` times
    /// the fixed rate steps up after a pass and down after a fail; each
    /// reversal halves the (logarithmic) step, so an early verdict spoiled
    /// by a stall is soon undone. The mean achieved rate of the last
    /// `KNEE_TAIL` probes, which straddle the knee, is reported.
    fn knee(&mut self) -> f64 {
        let mut rate = KNEE_START * self.plan.fixed_rate;
        let mut step = KNEE_STEP.ln();
        let mut last = None;
        let mut tail = Vec::with_capacity(KNEE_TAIL);
        for index in 0..KNEE_PROBES {
            let (pass, achieved) = self.probe(rate, index as u64);
            if last.is_some_and(|prev| prev != pass) {
                step = (step / 2.0).max(KNEE_MIN_STEP.ln());
            }
            last = Some(pass);
            if index >= KNEE_PROBES - KNEE_TAIL {
                tail.push(achieved);
            }
            rate *= if pass { step.exp() } else { (-step).exp() };
        }
        mean(&tail)
    }
}

/// Waits until the warm standby has absorbed everything outside its
/// horizon: anchored, at most one pending member, and an applied count
/// that stays put for several apply intervals.
fn standby_caught_up(cluster: &Cluster) -> bool {
    let engine = apps::LEDGER_ENGINE;
    let deadline = Instant::now() + AWAIT;
    let mut last_applied = u64::MAX;
    let mut stable = 0;
    while Instant::now() < deadline {
        if let Some(st) = cluster.standby_status(engine) {
            if st.demoted {
                return false;
            }
            if st.anchored && st.pending <= 1 && st.applied == last_applied {
                stable += 1;
                if stable >= 8 {
                    return true;
                }
            } else {
                stable = 0;
            }
            last_applied = st.applied;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let work_dir =
        PathBuf::from(".bench_work").join(format!("{}-{}", workload.name(), std::process::id()));
    std::fs::create_dir_all(&work_dir).expect("create the benchmark's work directory");
    let mut run = Run {
        workload,
        plan: workload.plan(),
        seed,
        seconds,
        work_dir: work_dir.clone(),
        deploys: 0,
        attempted: 0,
        failed: 0,
    };
    let metrics = if traced {
        traced_run(&mut run)
    } else {
        untraced_run(&mut run)
    };
    std::fs::remove_dir_all(&work_dir).ok();
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics,
    }
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn untraced_run(run: &mut Run) -> Metrics {
    let mut m = Metrics::new();
    let setup = run.setup();
    m.insert("setup_s", (median(&setup), "s"));

    let sched = run.fixed_schedule();
    let (target, dir) = run.deploy_target();
    let mut reference = Reference::new(run.plan.app);
    let mut tally = Tally::new(Instant::now());
    let mut tracer = Tracer::new(false);
    let mut rss_mid = 0.0;
    let phase = target.play(
        &sched,
        0,
        AWAIT,
        &mut tally,
        &mut reference,
        &mut tracer,
        NO_PARENT,
        |_| {
            rss_mid = probe::rss().now_mb;
        },
    );
    let rss = probe::rss();
    check_drained(run, &phase);
    m.insert(
        "latency_p50_ms",
        (
            windowed(&phase.latencies_ms, 0.5, WINDOW_MIN, FIXED_WINDOWS),
            "ms",
        ),
    );
    m.insert("peak_rss_mb", (rss.peak_mb, "MB"));
    m.insert("rss_growth", (ratio(rss.now_mb, rss_mid), "ratio"));

    let (target, drills) = run.drills(
        target,
        dir.as_deref(),
        &mut tally,
        &mut reference,
        &mut tracer,
    );
    run.finish(target, dir, &mut tally, &reference);
    m.insert("recovery_ms_p50", (median(&drills.recovery_ms), "ms"));

    m.insert("sustainable_msgs_per_s", (run.knee(), "msgs/s"));
    m
}

fn check_drained(run: &mut Run, phase: &Phase) {
    if phase.outstanding > 0 {
        eprintln!("{}: fixed-rate phase left a backlog", run.workload.name());
        run.failed += phase.outstanding;
    }
}

fn traced_run(run: &mut Run) -> Metrics {
    let sched = run.fixed_schedule();

    // The same schedule untraced, for the tracing overhead.
    let (target, dir) = run.deploy_target();
    let mut reference = Reference::new(run.plan.app);
    let mut tally = Tally::new(Instant::now());
    let mut plain = Tracer::new(false);
    let phase = target.play(
        &sched,
        0,
        AWAIT,
        &mut tally,
        &mut reference,
        &mut plain,
        NO_PARENT,
        |_| {},
    );
    check_drained(run, &phase);
    run.finish(target, dir, &mut tally, &reference);
    let untraced = phase;

    let mut tracer = Tracer::new(true);
    let (target, dir) = run.deploy_target();
    let mut reference = Reference::new(run.plan.app);
    let mut tally = Tally::new(Instant::now());
    let fixed = tracer.open("phase.fixed", NO_PARENT);
    let mut mid: Option<EngineMetrics> = None;
    let cpu0 = probe::cpu_time();
    let phase = target.play(
        &sched,
        0,
        AWAIT,
        &mut tally,
        &mut reference,
        &mut tracer,
        fixed,
        |c| {
            mid = Some(engine_totals(c));
        },
    );
    let cpu = probe::cpu_time() - cpu0;
    tracer.close(fixed);
    check_drained(run, &phase);
    let obs = target.cluster.obs_snapshot();
    let e = engine_totals(&target.cluster);
    let mid = mid.expect("the fixed phase passes its midpoint");

    let (target, drills) = run.drills(
        target,
        dir.as_deref(),
        &mut tally,
        &mut reference,
        &mut tracer,
    );
    let chain_depth: usize = target
        .cluster
        .engine_ids()
        .into_iter()
        .map(|id| target.cluster.replica_depth(id))
        .sum();
    run.finish(target, dir, &mut tally, &reference);

    let msgs = phase.sent as f64;
    let inject = tracer.micros_of("send", fixed);
    let pess_per_msg_us = obs.pessimism_wait_ns.sum() as f64 / 1e3 / msgs;
    let lat_mean_us = mean(&phase.latencies_ms) * 1e3;
    let covered_us = mean(&inject) + pess_per_msg_us + phase.drain_us_mean;
    let mid_bytes = ratio(mid.checkpoint_bytes as f64, mid.checkpoints as f64);
    let late_bytes = ratio(
        (e.checkpoint_bytes - mid.checkpoint_bytes) as f64,
        (e.checkpoints - mid.checkpoints) as f64,
    );

    let mut m = Metrics::new();
    m.insert(
        "latency_p99_ms",
        (
            windowed(&untraced.latencies_ms, 0.99, WINDOW_MIN, FIXED_WINDOWS),
            "ms",
        ),
    );
    m.insert("cluster.inject_us_p50", (median(&inject), "us"));
    m.insert("cluster.inject_us_p99", (percentile(&inject, 0.99), "us"));
    let drains = tracer.micros_of("take_outputs", fixed);
    m.insert("cluster.drain_us_p50", (median(&drains), "us"));
    m.insert(
        "cluster.heartbeat_us_p50",
        (median(&tracer.micros_of("heartbeat", fixed)), "us"),
    );
    m.insert("cluster.gen_lag_ms_max", (untraced.max_lag_ms, "ms"));
    m.insert(
        "sched.pessimism_wait_us_mean",
        (hist_mean(&obs.pessimism_wait_ns) / 1e3, "us"),
    );
    m.insert(
        "silence.adverts_per_msg",
        (obs.silence_adverts as f64 / msgs, "count"),
    );
    m.insert(
        "silence.probes_per_msg",
        (obs.probes as f64 / msgs, "count"),
    );
    m.insert(
        "core.cpu_us_per_msg",
        (cpu.as_secs_f64() * 1e6 / msgs, "us"),
    );
    m.insert(
        "estimator.residual_us_mean",
        (hist_mean(&obs.estimator_residual_ns) / 1e3, "us"),
    );
    m.insert(
        "checkpoint.bytes_mean",
        (
            ratio(e.checkpoint_bytes as f64, e.checkpoints as f64),
            "bytes",
        ),
    );
    m.insert(
        "checkpoint.bytes_growth",
        (ratio(late_bytes, mid_bytes), "ratio"),
    );
    m.insert(
        "checkpoint.delta_frac",
        (
            ratio(e.delta_checkpoints as f64, e.checkpoints as f64),
            "frac",
        ),
    );
    m.insert(
        "hash.per_checkpoint",
        (
            ratio(obs.state_hashes_computed as f64, e.checkpoints as f64),
            "count",
        ),
    );
    m.insert(
        "standby.lag_ticks_mean",
        (hist_mean(&obs.standby_lag_ticks), "ticks"),
    );
    m.insert(
        "standby.applied_per_ckpt",
        (
            ratio(obs.standby_applied as f64, e.checkpoints as f64),
            "count",
        ),
    );
    m.insert(
        "cluster.recovery_call_ms_p50",
        (median(&drills.call_ms), "ms"),
    );
    m.insert(
        "replay.first_output_ms_p50",
        (median(&drills.first_output_ms), "ms"),
    );
    m.insert("checkpoint.chain_depth_end", (chain_depth as f64, "count"));
    m.insert(
        "trace.unattributed_frac",
        (1.0 - ratio(covered_us, lat_mean_us), "frac"),
    );
    m.insert(
        "trace.overhead_frac",
        (
            ratio(
                windowed(&phase.latencies_ms, 0.5, WINDOW_MIN, FIXED_WINDOWS),
                windowed(&untraced.latencies_ms, 0.5, WINDOW_MIN, FIXED_WINDOWS),
            ) - 1.0,
            "frac",
        ),
    );

    let path = run
        .work_dir
        .with_file_name(format!("trace-{}.jsonl", run.workload.name()));
    if let Err(e) = tracer.write(&path) {
        eprintln!("trace not written to {}: {e}", path.display());
    }
    m.extend(durable_twin(run));
    m
}

/// The durable fan-in twin every traced run carries: the fan-in schedule
/// on a cluster with durability on (explicit tiers), then restart drills.
/// It supplies the WAL, store and restart per-layer metrics. It is not a
/// bounded workload of its own: on this host the disk's slow spells moved
/// its latency and knee far beyond any allowed bound between runs.
fn durable_twin(parent: &mut Run) -> Metrics {
    let mut run = Run {
        workload: Workload::FaninDurable,
        plan: Workload::FaninDurable.plan(),
        seed: parent.seed,
        seconds: parent.seconds,
        work_dir: parent.work_dir.join("durable"),
        deploys: 0,
        attempted: 0,
        failed: 0,
    };
    let sched = run.fixed_schedule();
    let (target, dir) = run.deploy_target();
    let mut reference = Reference::new(run.plan.app);
    let mut tally = Tally::new(Instant::now());
    let mut quiet = Tracer::new(false);
    let phase = target.play(
        &sched,
        0,
        AWAIT,
        &mut tally,
        &mut reference,
        &mut quiet,
        NO_PARENT,
        |_| {},
    );
    check_drained(&mut run, &phase);
    let obs = target.cluster.obs_snapshot();
    let (target, drills) = run.drills(
        target,
        dir.as_deref(),
        &mut tally,
        &mut reference,
        &mut quiet,
    );
    run.finish(target, dir, &mut tally, &reference);
    parent.attempted += run.attempted;
    parent.failed += run.failed;

    let msgs = phase.sent as f64;
    let wall_ns = phase.wall_s * 1e9;
    let mut m = Metrics::new();
    m.insert(
        "durable.latency_p50_ms",
        (
            windowed(&phase.latencies_ms, 0.5, WINDOW_MIN, FIXED_WINDOWS),
            "ms",
        ),
    );
    m.insert(
        "durable.restart_ms_p50",
        (median(&drills.recovery_ms), "ms"),
    );
    m.insert("wal.syncs_per_msg", (obs.wal_syncs as f64 / msgs, "count"));
    m.insert(
        "wal.group_occupancy_mean",
        (hist_mean(&obs.wal_group_occupancy), "count"),
    );
    m.insert(
        "wal.fsync_strict_busy_frac",
        (obs.wal_fsync_strict_ns.sum() as f64 / wall_ns, "frac"),
    );
    m.insert(
        "wal.fsync_buffered_busy_frac",
        (obs.wal_fsync_buffered_ns.sum() as f64 / wall_ns, "frac"),
    );
    m.insert(
        "store.persist_busy_frac",
        (obs.checkpoint_persist_ns.sum() as f64 / wall_ns, "frac"),
    );
    m.insert("recover.lost_strict", (drills.lost_strict as f64, "count"));
    m.insert(
        "recover.lost_buffered",
        (drills.lost_buffered as f64, "count"),
    );
    m
}
