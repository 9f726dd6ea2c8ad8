//! The open-loop generator: one thread paces a seeded Poisson schedule,
//! drains outputs, and sleeps between polls — it never spins, so on a
//! 2-core host it does not compete with the engine threads it measures.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tart_engine::{Cluster, Injector, TimeSource};
use tart_model::Value;
use tart_stats::{DetRng, PoissonProcess};

use crate::apps::{App, Reference, Tally};
use crate::probe;
use crate::trace::{SpanId, Tracer};

/// Longest sleep between output polls while a schedule plays. A sleeping
/// poller gave a steadier rate than a `yield_now` spinner, which measured
/// the scheduler.
pub const POLL: Duration = Duration::from_micros(200);
/// Sleep between polls while awaiting one output (set-up, recovery): short,
/// so the wait's granularity does not dominate sub-millisecond timings.
const AWAIT_POLL: Duration = Duration::from_micros(20);
/// Heartbeat cadence while the generator runs: an idle client promises
/// silence at least this often, so the Merger's pessimism wait is bounded
/// by it even when one client goes quiet.
const HEARTBEAT_EVERY: f64 = 200e-6;

/// One message due at `at` seconds after the phase starts.
pub struct Scheduled {
    pub at: f64,
    pub client: usize,
    pub payload: Value,
}

/// A Poisson schedule of `rate` msgs/s lasting `secs`. `first_index`
/// numbers the ledger's payloads across phases.
pub fn schedule(
    app: App,
    rng: &mut DetRng,
    rate: f64,
    secs: f64,
    first_index: u64,
) -> Vec<Scheduled> {
    let mut arrivals = PoissonProcess::new(1.0 / rate);
    let mut out = Vec::new();
    loop {
        let at = arrivals.next_arrival(rng);
        if at >= secs {
            return out;
        }
        let client = app.pick_client(rng);
        let payload = app.input(rng, first_index + out.len() as u64);
        out.push(Scheduled {
            at,
            client,
            payload,
        });
    }
}

/// What one paced phase measured.
pub struct Phase {
    pub sent: u64,
    /// Scheduled arrival → first receipt, ms, for every message received.
    pub latencies_ms: Vec<f64>,
    /// Messages not yet received `limit` after the window's end.
    pub outstanding: u64,
    pub max_lag_ms: f64,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Achieved send rate: messages over the first-to-last send interval.
    pub send_rate: f64,
    /// Mean time a message spent in the `take_outputs` call that returned
    /// it (traced runs only).
    pub drain_us_mean: f64,
}

/// A deployed cluster, the injectors the generator feeds it through, and
/// the clock it stamps with.
pub struct Target {
    pub cluster: Cluster,
    pub injectors: Vec<Injector>,
    pub clock: Arc<dyn TimeSource>,
}

impl Target {
    pub fn new(cluster: Cluster, app: App, clock: Arc<dyn TimeSource>) -> Self {
        let injectors = app
            .clients()
            .iter()
            .map(|c| {
                cluster
                    .injector(c)
                    .expect("every client has an injector")
                    .clone()
            })
            .collect();
        Target {
            cluster,
            injectors,
            clock,
        }
    }

    /// Sends one message outside a schedule (drill bursts, set-up probes).
    pub fn send(
        &self,
        tracer: &mut Tracer,
        parent: SpanId,
        reference: &mut Reference,
        client: usize,
        payload: Value,
    ) {
        let (vt, id) = tracer.span("send", parent, || {
            self.injectors[client].send(payload.clone())
        });
        tracer.tag(id, client as u32, vt.as_ticks());
        reference.record(client, &payload);
    }

    /// Drains outputs into `tally`, heartbeating and sleeping between
    /// polls, until `done` holds or `timeout` passes. Returns whether
    /// `done` held.
    pub fn await_until(
        &self,
        tracer: &mut Tracer,
        parent: SpanId,
        tally: &mut Tally,
        timeout: Duration,
        mut done: impl FnMut(&Tally) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let (outs, _) = tracer.span("take_outputs", parent, || self.cluster.take_outputs());
            tally.absorb(outs);
            if done(tally) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            tracer.span("heartbeat", parent, || self.cluster.heartbeat_inputs());
            std::thread::sleep(AWAIT_POLL);
        }
    }

    /// Plays `schedule` open loop. Messages take seqs `seq_base + 1 ..`;
    /// the phase ends once all have arrived, or `limit` after the last
    /// scheduled instant. `at_midpoint` runs once, when half are sent.
    #[allow(clippy::too_many_arguments)]
    pub fn play(
        &self,
        schedule: &[Scheduled],
        seq_base: u64,
        limit: Duration,
        tally: &mut Tally,
        reference: &mut Reference,
        tracer: &mut Tracer,
        parent: SpanId,
        mut at_midpoint: impl FnMut(&Cluster),
    ) -> Phase {
        let n = schedule.len();
        let window = schedule.last().map_or(0.0, |m| m.at);
        let end = window + limit.as_secs_f64();
        let start = Instant::now();
        let start_at = start.duration_since(tally.epoch()).as_secs_f64();
        let mut next = 0usize;
        let mut received = 0usize;
        let mut last_hb = f64::NEG_INFINITY;
        let mut max_lag = 0.0f64;
        let mut first_send = 0.0;
        let mut last_send = 0.0;
        let mut drain_weighted_us = 0.0;
        let in_phase = |seq: u64| seq > seq_base && seq <= seq_base + n as u64;
        loop {
            let now = start.elapsed().as_secs_f64();
            while next < n && schedule[next].at <= now {
                let m = &schedule[next];
                let sent_at = start.elapsed().as_secs_f64();
                max_lag = max_lag.max(sent_at - m.at);
                if next == 0 {
                    first_send = sent_at;
                }
                last_send = sent_at;
                let (vt, id) = tracer.span("send", parent, || {
                    self.injectors[m.client].send(m.payload.clone())
                });
                tracer.tag(id, m.client as u32, vt.as_ticks());
                next += 1;
                if next == n / 2 {
                    at_midpoint(&self.cluster);
                }
            }
            if now - last_hb >= HEARTBEAT_EVERY {
                tracer.span("heartbeat", parent, || self.cluster.heartbeat_inputs());
                last_hb = now;
            }
            let (outs, id) = tracer.span("take_outputs", parent, || self.cluster.take_outputs());
            let count = outs.len();
            let fresh = tally.absorb(outs);
            received += fresh.iter().filter(|&&s| in_phase(s)).count();
            if tracer.enabled() && count > 0 {
                drain_weighted_us += tracer.get(id).map_or(0.0, |s| s.micros()) * count as f64;
            }
            let now = start.elapsed().as_secs_f64();
            if next == n && (received == n || now > end) {
                break;
            }
            let until_next = schedule.get(next).map_or(f64::INFINITY, |m| m.at - now);
            let nap = POLL.as_secs_f64().min(until_next);
            if nap > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(nap));
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        // The reference model runs after the phase, off the generator's
        // clock; the loop ends only once every message was sent.
        for m in schedule {
            reference.record(m.client, &m.payload);
        }
        let latencies_ms: Vec<f64> = schedule
            .iter()
            .enumerate()
            .filter_map(|(i, m)| {
                let at = tally.receipt(seq_base + 1 + i as u64)?;
                Some((at - start_at - m.at) * 1e3)
            })
            .collect();
        Phase {
            sent: n as u64,
            outstanding: (n - received) as u64,
            latencies_ms,
            max_lag_ms: max_lag * 1e3,
            wall_s,
            send_rate: probe::ratio(n as f64 - 1.0, last_send - first_send),
            drain_us_mean: probe::ratio(drain_weighted_us, received as f64),
        }
    }
}
