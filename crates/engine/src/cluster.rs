//! Cluster deployment, external I/O, failover orchestration.

// Ops-plane module (tart-lint tier: Ops): wall-clock reads and hash maps never flow into the replayable core; the interprocedural TAINT-FLOW pass fences the boundary, so raw reads need no per-line allows here.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use tart_estimator::EstimatorSpec;
use tart_model::{AppSpec, Value};
use tart_vtime::{ComponentId, EngineId, VirtualTime, WireId};

use crate::chaos::{ChaosHandle, ChaosPlan};
use crate::checkpoint::{verify_chain, ChainDefect};
use crate::core::{EngineCore, Flow};
use crate::router::{EXTERNAL_ENGINE, SUPERVISOR_ENGINE};
use crate::standby::{StandbyPlane, StandbyStatus, WarmCandidate};
use crate::store::CheckpointStore;
use crate::supervise::{SupervisionMetrics, Supervisor};
use crate::{
    ClusterConfig, DurabilityConfig, DurabilityPolicy, EngineCheckpoint, EngineMetrics, Envelope,
    MessageLog, OutputRecord, Placement, ReplicaStore, Router, SharedEngineMetrics,
};

/// Cap on envelopes an engine batches per loop iteration, so a saturated
/// inbox cannot starve heartbeat emission indefinitely.
const BATCH_LIMIT: usize = 128;

/// Errors raised at deployment time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeployError {
    /// The placement does not assign every component.
    IncompletePlacement,
    /// [`Cluster::deploy`] with durability found prior on-disk state in the
    /// durability directory. Starting fresh over old state would silently
    /// orphan a recoverable run — use [`Cluster::recover_from_disk`], or
    /// point at an empty directory.
    DurabilityDirNotEmpty,
    /// [`Cluster::recover_from_disk`] was called without
    /// [`ClusterConfig::with_durability`].
    DurabilityNotConfigured,
    /// The durability layer could not be brought up (WAL or checkpoint
    /// store unopenable, or unrecoverably corrupt).
    DurabilityUnavailable(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::IncompletePlacement => {
                write!(f, "placement does not cover every component")
            }
            DeployError::DurabilityDirNotEmpty => {
                write!(
                    f,
                    "durability directory holds prior state; recover_from_disk or use an empty dir"
                )
            }
            DeployError::DurabilityNotConfigured => {
                write!(
                    f,
                    "recover_from_disk requires ClusterConfig::with_durability"
                )
            }
            DeployError::DurabilityUnavailable(why) => {
                write!(f, "durability layer unavailable: {why}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Errors raised by [`Cluster::promote`].
///
/// A mistimed promotion — from a racing supervisor, an operator script, or
/// a chaos drill — degrades to a structured error the caller can log and
/// retry, instead of unwinding inside the host lock and poisoning every
/// later cluster operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PromoteError {
    /// The engine id was never deployed on this cluster.
    UnknownEngine(EngineId),
    /// The engine is still alive — fail-stop it ([`Cluster::kill`]) first.
    EngineStillAlive(EngineId),
    /// Hash verification discarded **every** generation of a non-empty
    /// checkpoint chain: nothing restorable survives, and resuming from
    /// scratch would silently discard the engine's entire history. The
    /// engine is left dead; its flight-recorder dumps say which members
    /// diverged.
    ChainExhausted {
        /// The engine whose chain was exhausted.
        engine: EngineId,
        /// Generations verification discarded on the way to empty.
        discarded: usize,
    },
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromoteError::UnknownEngine(e) => write!(f, "engine {e} was never deployed"),
            PromoteError::EngineStillAlive(e) => {
                write!(f, "engine {e} is still alive; kill it before promoting")
            }
            PromoteError::ChainExhausted { engine, discarded } => write!(
                f,
                "engine {engine}: all {discarded} checkpoint generations failed verification"
            ),
        }
    }
}

impl std::error::Error for PromoteError {}

/// Shared per-external-wire producer state: the timestamp floor (covering
/// data and heartbeat silence) so data and silence never contradict.
struct SourceState {
    wire: WireId,
    target: EngineId,
    /// Every tick `<= watermark` is accounted (data sent or silence
    /// promised).
    watermark: Option<VirtualTime>,
    /// The last data tick actually sent (the `prev_vt` chain head).
    last_data: Option<VirtualTime>,
    finished: bool,
}

/// A handle for feeding one external producer's messages into the system.
///
/// Sends are timestamped with the cluster clock, logged (§II.E: external
/// messages are the only logged messages), and routed to the engine hosting
/// the destination component.
#[derive(Clone)]
pub struct Injector {
    name: String,
    state: Arc<Mutex<SourceState>>,
    log: Arc<Mutex<MessageLog>>,
    router: Router,
    clock: Arc<dyn crate::TimeSource>,
}

impl Injector {
    /// Sends one external message; returns the virtual time it was stamped
    /// with.
    ///
    /// # Panics
    ///
    /// Panics if [`Injector::finish`] was already called.
    pub fn send(&self, payload: Value) -> VirtualTime {
        let mut state = self.state.lock();
        assert!(!state.finished, "injector {} already finished", self.name);
        let now = self.clock.now();
        let ts = match state.watermark {
            Some(w) => now.max_with(w.next()),
            None => now,
        };
        state.watermark = Some(ts);
        let prev_vt = state.last_data.unwrap_or(VirtualTime::ZERO);
        state.last_data = Some(ts);
        self.log
            .lock()
            .append(state.wire, ts, &payload)
            .expect("timestamps are monotone by construction");
        self.router.send(
            state.target,
            Envelope::Data {
                wire: state.wire,
                vt: ts,
                prev_vt,
                payload,
            },
        );
        ts
    }

    /// Promises silence up to (just before) the present: an idle external
    /// producer's way of letting downstream pessimism resolve.
    pub fn heartbeat(&self) {
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        let bound = self.clock.now().prev();
        if state.watermark.is_none_or(|w| bound > w) {
            state.watermark = Some(bound);
            self.router.send(
                state.target,
                Envelope::Silence {
                    wire: state.wire,
                    through: bound,
                    last_data: state.last_data.unwrap_or(VirtualTime::ZERO),
                },
            );
        }
    }

    /// Declares end-of-stream: unbounded silence. No further sends allowed.
    pub fn finish(&self) {
        let mut state = self.state.lock();
        if state.finished {
            return;
        }
        state.finished = true;
        self.router.send(
            state.target,
            Envelope::Eos {
                wire: state.wire,
                last_data: state.last_data.unwrap_or(VirtualTime::ZERO),
            },
        );
    }

    /// The producer's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for Injector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Injector")
            .field("name", &self.name)
            .finish()
    }
}

struct EngineSlot {
    sender: Sender<Envelope>,
    thread: Option<JoinHandle<()>>,
    replica: ReplicaStore,
    metrics: Arc<SharedEngineMetrics>,
    alive: bool,
}

/// The thread-safe core of a deployed cluster: everything needed to start,
/// fail-stop and promote engines. Shared (via `Arc`) between the
/// user-facing [`Cluster`] handle and the liveness [`Supervisor`] thread so
/// failover can be driven from either side with identical semantics.
pub(crate) struct EngineHost {
    spec: AppSpec,
    placement: Placement,
    pub(crate) config: ClusterConfig,
    pub(crate) router: Router,
    outputs_tx: Sender<OutputRecord>,
    engines: Mutex<HashMap<EngineId, EngineSlot>>,
    /// On-disk checkpoint store every hosted core tees into, when the
    /// cluster runs with durability.
    durable: Option<Arc<CheckpointStore>>,
    /// Cluster-wide observability hub: every engine core, the WAL and the
    /// checkpoint store record into it. Ops-plane only; nothing here ever
    /// feeds back into checkpointed state.
    pub(crate) obs: Arc<tart_obs::ObsHub>,
    /// Warm-standby plane ([`ClusterConfig::with_warm_standby`]): receives
    /// every engine's checkpoint/input stream and pre-applies it in the
    /// background so promotion only replays the unapplied tail.
    pub(crate) standby: Option<StandbyPlane>,
}

/// Dumps the engine's flight recorder if its thread unwinds — the timeline
/// that led to the panic is exactly what a postmortem needs, and it is gone
/// once the ring is dropped.
struct FlightDumpOnPanic {
    hub: Arc<tart_obs::ObsHub>,
    engine: EngineId,
}

impl Drop for FlightDumpOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            dump_flight(&self.hub, &format!("engine {} panicked", self.engine));
        }
    }
}

/// Writes a flight-recorder dump where operators can find it: the file
/// named by `$TART_FLIGHT_DUMP` when set (pure JSON, overwritten per dump),
/// stderr otherwise.
pub(crate) fn dump_flight(hub: &tart_obs::ObsHub, why: &str) {
    if let Some(path) = std::env::var_os("TART_FLIGHT_DUMP") {
        let path = std::path::PathBuf::from(path);
        let dump = hub.dump_events_json();
        if std::fs::write(&path, format!("{dump}\n")).is_ok() {
            eprintln!(
                "[tart-obs] flight recorder ({why}) written to {}",
                path.display()
            );
            return;
        }
    }
    // Stderr fallback: bounded, or a busy soak would bury the log under
    // megabytes of timeline. The file path above gets the full ring.
    eprintln!(
        "[tart-obs] flight recorder ({why}): {}",
        hub.dump_events_json_tail(STDERR_DUMP_EVENTS)
    );
}

/// Newest events kept in a stderr flight dump (see [`dump_flight`]).
const STDERR_DUMP_EVENTS: usize = 256;

impl EngineHost {
    /// All deployed engine ids, ascending.
    pub(crate) fn engine_ids(&self) -> Vec<EngineId> {
        let mut ids: Vec<EngineId> = self.engines.lock().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Whether `engine` is believed alive (not yet [`EngineHost::kill`]ed).
    /// An engine that crashed without being killed still reads alive — the
    /// failure detector exists precisely to notice that case.
    pub(crate) fn is_alive(&self, engine: EngineId) -> bool {
        self.engines.lock().get(&engine).is_some_and(|s| s.alive)
    }

    /// The durability tier an engine's persistence plane runs at: the
    /// **strictest** tier across its hosted components (one Strict
    /// component on an engine pins the whole engine's checkpoints to
    /// fsynced persists — engines checkpoint atomically, so the plane
    /// cannot split one engine's generation across tiers).
    fn engine_tier(&self, d: &DurabilityConfig, engine: EngineId) -> DurabilityPolicy {
        self.placement
            .components_on(engine)
            .into_iter()
            .map(|c| d.resolve_tier(c, Some(engine)))
            .max()
            .unwrap_or(d.default_tier)
    }

    /// Wires the checkpoint store into a core per the engine's resolved
    /// tier: Strict persists and fsyncs before shipping, Buffered persists
    /// without the fsync, InMemory skips the store entirely — its only
    /// recovery sources are the passive replica and peer replay, so a
    /// whole-process crash restarts it from scratch.
    fn attach_durability(&self, engine: EngineId, core: &mut EngineCore) {
        let (Some(store), Some(d)) = (&self.durable, &self.config.durability) else {
            return;
        };
        match self.engine_tier(d, engine) {
            DurabilityPolicy::InMemory => {}
            DurabilityPolicy::Buffered { .. } => {
                core.set_durable(Arc::clone(store));
                core.set_durable_sync(false);
            }
            DurabilityPolicy::Strict => core.set_durable(Arc::clone(store)),
        }
    }

    fn start_engine(&self, id: EngineId) {
        let (tx, rx) = unbounded::<Envelope>();
        self.router.register(id, tx.clone());
        let replica = ReplicaStore::default();
        let mut core = EngineCore::new(
            id,
            &self.spec,
            &self.placement,
            &self.config,
            self.router.clone(),
            replica.clone(),
            self.outputs_tx.clone(),
        );
        self.attach_durability(id, &mut core);
        core.set_obs(self.obs.engine(id));
        let metrics = core.metrics_handle();
        let thread = self.spawn_engine_loop(id, core, rx, false);
        self.engines.lock().insert(
            id,
            EngineSlot {
                sender: tx,
                thread: Some(thread),
                replica,
                metrics,
                alive: true,
            },
        );
    }

    /// The engine main loop, shared by fresh starts and promotions: receive
    /// → handle → pump → drain bookkeeping, plus (when supervision is on)
    /// periodic heartbeat emission to the supervisor inbox.
    fn spawn_engine_loop(
        &self,
        id: EngineId,
        mut core: EngineCore,
        rx: Receiver<Envelope>,
        restored: bool,
    ) -> JoinHandle<()> {
        let mut idle = Duration::from_micros(self.config.idle_poll_micros);
        let heartbeat = self
            .config
            .supervision
            .as_ref()
            .map(|s| s.heartbeat_interval);
        if let Some(interval) = heartbeat {
            // Wake at least twice per beacon period even if the configured
            // idle poll is coarser.
            idle = idle.min(interval / 2).max(Duration::from_micros(50));
        }
        let router = self.router.clone();
        let flight_guard = FlightDumpOnPanic {
            hub: Arc::clone(&self.obs),
            engine: id,
        };
        let suffix = if restored { "r" } else { "" };
        std::thread::Builder::new()
            .name(format!("tart-engine-{}{suffix}", id.raw()))
            .spawn(move || {
                let _flight_guard = flight_guard;
                let mut draining = false;
                let mut seq = 0u64;
                let mut next_hb = Instant::now();
                let mut batch: Vec<Envelope> = Vec::with_capacity(BATCH_LIMIT);
                loop {
                    if let Some(interval) = heartbeat {
                        let now = Instant::now();
                        if now >= next_hb {
                            router.send(SUPERVISOR_ENGINE, Envelope::Heartbeat { engine: id, seq });
                            seq += 1;
                            next_hb = now + interval;
                        }
                    }
                    // One wakeup drains up to BATCH_LIMIT queued envelopes
                    // in a single channel-lock round-trip (bounded so
                    // heartbeats keep flowing under load). A `Die` mid-batch
                    // drops the rest — exactly the fail-stop inbox loss.
                    batch.clear();
                    match rx.recv_batch_timeout(&mut batch, BATCH_LIMIT, idle) {
                        Ok(_) => {
                            for env in batch.drain(..) {
                                match core.handle(env) {
                                    Flow::Die => return, // fail-stop: drop everything
                                    Flow::Drain => draining = true,
                                    Flow::Continue => {}
                                }
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                            core.on_idle_tick();
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                    }
                    core.pump();
                    if draining && core.drain_step() {
                        core.take_checkpoint();
                        return;
                    }
                }
            })
            .expect("spawn engine thread")
    }

    /// Fail-stops `engine`: its thread exits immediately, losing all state
    /// and all envelopes in its inbox (the §II.A failure model). Returns
    /// once the thread is gone.
    pub(crate) fn kill(&self, engine: EngineId) {
        self.router.send(engine, Envelope::Die);
        self.router.deregister(engine);
        let thread = {
            let mut engines = self.engines.lock();
            match engines.get_mut(&engine) {
                Some(slot) => {
                    slot.alive = false;
                    slot.thread.take()
                }
                None => None,
            }
        };
        // Join outside the lock: the dying thread never takes it, but other
        // callers (metrics readers, the supervisor poll) shouldn't wait.
        if let Some(t) = thread {
            let _ = t.join();
        }
    }

    /// Builds a fresh core for `engine` and restores `chain` into it with
    /// hash verification (DESIGN.md §15). A chain-seal defect truncates the
    /// chain at the defective member before anything is restored; a
    /// post-restore state-hash divergence discards the tainted core, drops
    /// the chain's newest member, and retries — an empty chain restores
    /// vacuously, so the loop always terminates. Discarding a core is safe
    /// because `EngineCore::restore` verifies *before* its first router
    /// send: a failed attempt is invisible to peers. Each rejection dumps
    /// the flight ring for forensics (the divergence counter and timeline
    /// event are recorded inside `restore` itself).
    ///
    /// Returns the restored core and whether verification forced a shorter
    /// chain than the caller supplied.
    ///
    /// # Errors
    ///
    /// When an **originally non-empty** chain is discarded down to nothing
    /// — every generation defective or divergent — the error carries how
    /// many generations were thrown away. Restoring vacuously in that case
    /// would silently erase the engine's entire history; the caller decides
    /// (promotion surfaces [`PromoteError::ChainExhausted`], cold restart
    /// surfaces [`DeployError::DurabilityUnavailable`]). A chain that was
    /// empty to begin with still restores vacuously: a never-checkpointed
    /// engine legitimately restarts from scratch.
    fn restore_verified(
        &self,
        engine: EngineId,
        replica: &ReplicaStore,
        mut chain: Vec<EngineCheckpoint>,
        faults: &[(ComponentId, tart_estimator::DeterminismFault)],
    ) -> Result<(EngineCore, bool), usize> {
        let original_len = chain.len();
        let mut fell_back = false;
        if let Err(defect) = verify_chain(&chain) {
            dump_flight(&self.obs, &format!("chain defect for {engine}: {defect}"));
            let (ChainDefect::BrokenSeal { index, .. }
            | ChainDefect::DeltaWithoutBase { index, .. }) = defect;
            chain.truncate(index);
            fell_back = true;
        }
        loop {
            if chain.is_empty() && original_len > 0 {
                dump_flight(
                    &self.obs,
                    &format!(
                        "chain exhausted for {engine}: all {original_len} generations discarded"
                    ),
                );
                return Err(original_len);
            }
            let mut core = EngineCore::new(
                engine,
                &self.spec,
                &self.placement,
                &self.config,
                self.router.clone(),
                replica.clone(),
                self.outputs_tx.clone(),
            );
            self.attach_durability(engine, &mut core);
            core.set_obs(self.obs.engine(engine));
            match core.restore(&chain, faults) {
                Ok(()) => return Ok((core, fell_back)),
                Err(fault) => {
                    dump_flight(
                        &self.obs,
                        &format!("state divergence for {engine}: {fault}"),
                    );
                    chain.pop();
                    fell_back = true;
                }
            }
        }
    }

    /// Promotes `engine`'s passive replica: rebuilds the components from the
    /// checkpoint chain and the determinism-fault log, re-registers the
    /// inbox, and replays — from upstream retention for internal wires and
    /// from the message log for external wires (§II.F.3–4).
    ///
    /// With a warm standby ([`ClusterConfig::with_warm_standby`]) whose
    /// slot is anchored and undemoted, only the chain tail the standby has
    /// not yet absorbed is seal-checked and applied before activation —
    /// the sub-horizon promotion path, O(tail) rather than O(chain). The
    /// warm core is discarded and promotion falls back to the cold drill
    /// whenever the candidate is stale, the unabsorbed tail fails its seal
    /// check, or the tail digests diverge. Cold promotion is
    /// hash-verified the same way ([`EngineHost::restore_verified`]): a
    /// corrupted or divergent suffix is discarded and the promotion
    /// restores from the longest verified prefix instead of resuming
    /// corrupt state.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`]. On [`PromoteError::ChainExhausted`] the engine
    /// is left dead and deregistered — resuming from nothing would silently
    /// erase its history.
    pub(crate) fn promote(&self, engine: EngineId) -> Result<(), PromoteError> {
        let t0 = Instant::now();
        let replica = {
            let engines = self.engines.lock();
            let slot = engines
                .get(&engine)
                .ok_or(PromoteError::UnknownEngine(engine))?;
            if slot.alive {
                return Err(PromoteError::EngineStillAlive(engine));
            }
            slot.replica.clone()
        };
        let chain = replica.chain();
        let faults = replica.faults();

        let fresh_replica = ReplicaStore::new();
        self.obs.failover(engine);

        // Taking the candidate resets the slot either way: the next
        // incarnation re-anchors at its first (full) checkpoint, and a
        // demotion verdict applies only to the incarnation that earned it.
        let warm = self.standby.as_ref().and_then(|p| p.take(engine));

        // Register the new inbox FIRST so the replay responses triggered by
        // restore (and live traffic) reach the restored engine.
        let (tx, rx) = unbounded::<Envelope>();
        self.router.register(engine, tx.clone());

        // Warm path first; any mismatch falls through to the cold drill,
        // which restores the longest verified chain prefix from scratch.
        let (core, warm_used) =
            match self.warm_restore(engine, &fresh_replica, &chain, &faults, warm) {
                Some(core) => (core, true),
                None => match self.restore_verified(engine, &fresh_replica, chain, &faults) {
                    Ok((core, _fell_back)) => (core, false),
                    Err(discarded) => {
                        self.router.deregister(engine);
                        return Err(PromoteError::ChainExhausted { engine, discarded });
                    }
                },
            };

        let metrics = core.metrics_handle();
        let thread = self.spawn_engine_loop(engine, core, rx, true);
        self.engines.lock().insert(
            engine,
            EngineSlot {
                sender: tx,
                thread: Some(thread),
                replica: fresh_replica,
                metrics,
                alive: true,
            },
        );
        self.obs
            .promotion_complete(engine, warm_used, t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// The warm-promotion attempt: locate the standby's last absorbed
    /// member in the authoritative chain by `(seq, chain_seal)`, apply only
    /// the tail after it, and run the ordinary activation (which verifies
    /// the tail digests before any output escapes). Returns `None` — fall
    /// back to cold — when there is no candidate, the candidate is stale,
    /// the unabsorbed tail fails its seal check, or activation diverges.
    fn warm_restore(
        &self,
        engine: EngineId,
        fresh_replica: &ReplicaStore,
        chain: &[EngineCheckpoint],
        faults: &[(ComponentId, tart_estimator::DeterminismFault)],
        warm: Option<WarmCandidate>,
    ) -> Option<EngineCore> {
        let cand = warm?;
        let idx = chain
            .iter()
            .position(|c| c.seq == cand.applied_seq && c.chain_seal == cand.applied_seal)?;
        // Seal-check only the tail the standby never absorbed. The prefix
        // needs no re-hash: the standby verified every member it applied
        // (seal continuity and state digests), and `chain_seal` at `idx`
        // commits to the entire prefix through the seal chain, so the
        // `(seq, chain_seal)` match above vouches for it transitively.
        // This keeps warm promotion O(tail), not O(chain) — the whole
        // point of the standby. A defective tail goes cold, where
        // restore_verified owns the truncate-and-retry discipline.
        let mut prev_seal = cand.applied_seal;
        for member in &chain[idx + 1..] {
            let expected_prev = if member.is_self_contained() {
                tart_model::StateHash::ZERO
            } else {
                prev_seal
            };
            if member.seal_over(&expected_prev) != member.chain_seal {
                dump_flight(
                    &self.obs,
                    &format!("standby for {engine} unusable: tail seal defect; going cold"),
                );
                return None;
            }
            prev_seal = member.chain_seal;
        }
        let mut core = cand.core;
        core.set_replica(fresh_replica.clone());
        self.attach_durability(engine, &mut core);
        core.set_obs(self.obs.engine(engine));
        for ckpt in &chain[idx + 1..] {
            core.apply_member_snapshots(ckpt);
        }
        core.apply_faults(faults);
        match core.finish_restore(chain) {
            Ok(()) => Some(core),
            Err(fault) => {
                dump_flight(
                    &self.obs,
                    &format!("warm restore for {engine} diverged ({fault}); going cold"),
                );
                None
            }
        }
    }

    fn engine_metrics(&self, engine: EngineId) -> Option<EngineMetrics> {
        self.engines
            .lock()
            .get(&engine)
            .map(|s| s.metrics.snapshot())
    }

    fn replica_depth(&self, engine: EngineId) -> usize {
        self.engines
            .lock()
            .get(&engine)
            .map_or(0, |s| s.replica.len())
    }
}

/// A deployed TART application: engines on threads, passive replicas,
/// external injectors and collectors, and the failover machinery.
///
/// See the crate-level example. The manual failure drill is:
///
/// ```text
/// cluster.kill(engine);     // fail-stop: state and in-flight traffic lost
/// cluster.promote(engine);  // replica restores checkpoint, replays, resumes
/// ```
///
/// With [`ClusterConfig::with_supervision`] the same drill runs
/// automatically: engines heartbeat a supervisor thread whose failure
/// detector fail-stops and promotes any engine that goes quiet — no manual
/// calls required.
pub struct Cluster {
    host: Arc<EngineHost>,
    injectors: HashMap<String, Injector>,
    sources: HashMap<WireId, Arc<Mutex<SourceState>>>,
    log: Arc<Mutex<MessageLog>>,
    outputs_rx: Receiver<OutputRecord>,
    replay_service: Option<JoinHandle<()>>,
    supervisor: Option<Supervisor>,
}

impl Cluster {
    /// Deploys `spec` across engines per `placement` and starts every
    /// engine thread (plus the liveness supervisor when
    /// [`ClusterConfig::supervision`] is set).
    ///
    /// # Errors
    ///
    /// Returns [`DeployError::IncompletePlacement`] if any component is
    /// unassigned.
    pub fn deploy(
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
    ) -> Result<Cluster, DeployError> {
        if !placement.covers(&spec) {
            return Err(DeployError::IncompletePlacement);
        }
        let router = Router::new(config.faults.clone());
        let (outputs_tx, outputs_rx) = unbounded();
        let obs = Arc::new(tart_obs::ObsHub::new());
        let (log, durable) = match &config.durability {
            Some(d) => {
                let (mut log, store) = open_fresh_durability(d)?;
                apply_wire_tiers(&spec, &placement, d, &mut log);
                (Arc::new(Mutex::new(log)), Some(store))
            }
            None => (Arc::new(Mutex::new(MessageLog::in_memory())), None),
        };
        log.lock().set_obs(Arc::clone(&obs));
        if let Some(store) = &durable {
            store.set_obs(Arc::clone(&obs));
        }
        let standby = config.standby.clone().map(|s| {
            StandbyPlane::start(
                s,
                spec.clone(),
                placement.clone(),
                config.clone(),
                router.clone(),
                outputs_tx.clone(),
                Arc::clone(&obs),
            )
        });
        let host = Arc::new(EngineHost {
            spec,
            placement,
            config,
            router,
            outputs_tx,
            engines: Mutex::new(HashMap::new()),
            durable,
            obs,
            standby,
        });
        let mut cluster = Cluster {
            host: Arc::clone(&host),
            injectors: HashMap::new(),
            sources: HashMap::new(),
            log,
            outputs_rx,
            replay_service: None,
            supervisor: None,
        };
        for engine in host.placement.engines() {
            host.start_engine(engine);
        }
        // External producers.
        for w in host.spec.external_inputs() {
            let name = match w.from() {
                tart_model::Endpoint::External { name } => name.clone(),
                _ => unreachable!("external input wires start externally"),
            };
            let target_component = w.to().component().expect("external inputs feed components");
            let target = host
                .placement
                .engine_of(target_component)
                .expect("placement covers the app");
            let state = Arc::new(Mutex::new(SourceState {
                wire: w.id(),
                target,
                watermark: None,
                last_data: None,
                finished: false,
            }));
            cluster.sources.insert(w.id(), Arc::clone(&state));
            cluster.injectors.insert(
                name.clone(),
                Injector {
                    name,
                    state,
                    log: Arc::clone(&cluster.log),
                    router: host.router.clone(),
                    clock: Arc::clone(&host.config.clock),
                },
            );
        }
        cluster.spawn_replay_service();
        if let Some(supervision) = host.config.supervision.clone() {
            cluster.supervisor = Some(Supervisor::start(Arc::clone(&host), supervision));
        }
        Ok(cluster)
    }

    /// Cold-restarts a cluster from the on-disk state a previous
    /// (crashed) deployment left in `config.durability.dir`: the WAL is
    /// scanned (truncating any torn tail), each engine restores from its
    /// newest checkpoint generation that verifies (falling back one if the
    /// newest is corrupt), the determinism-fault logs are re-applied, and
    /// every engine replays forward — from the WAL for external wires, from
    /// recovered retention plus deterministic re-execution for internal
    /// ones. Deduplicated outputs are byte-identical to a run that never
    /// crashed (§II.F.4 extended to whole-cluster failure).
    ///
    /// The cluster clock is advanced past the last logged timestamp so
    /// re-driven external sends continue the original timeline.
    ///
    /// # Errors
    ///
    /// [`DeployError::DurabilityNotConfigured`] without
    /// [`ClusterConfig::with_durability`];
    /// [`DeployError::DurabilityUnavailable`] when the WAL has mid-file
    /// (non-tail) corruption or an engine's every checkpoint generation
    /// fails verification.
    pub fn recover_from_disk(
        spec: AppSpec,
        placement: Placement,
        config: ClusterConfig,
    ) -> Result<(Cluster, RecoveryReport), DeployError> {
        if !placement.covers(&spec) {
            return Err(DeployError::IncompletePlacement);
        }
        let Some(d) = config.durability.clone() else {
            return Err(DeployError::DurabilityNotConfigured);
        };
        let (mut log, wal_recovery) =
            MessageLog::durable(d.dir.join("wal"), d.wal_segment_bytes)
                .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
        apply_wire_tiers(&spec, &placement, &d, &mut log);
        let store = Arc::new(
            CheckpointStore::open(d.dir.join("ckpt"))
                .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?,
        );
        // Read every engine's restart point from disk BEFORE starting any
        // thread: all fallible work happens while the cluster is still
        // inert, so an error cannot strand half-started engines.
        let mut restored = Vec::new();
        for engine in placement.engines() {
            let loaded = store
                .load_chain(engine)
                .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
            let faults = store
                .faults(engine)
                .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
            let (chain, generation, fell_back) = match loaded {
                Some(l) => (l.chain, Some(l.generation), l.fell_back),
                None => (Vec::new(), None, false),
            };
            restored.push((engine, chain, faults, generation, fell_back));
        }
        // Continue the original timeline: every timestamp the clock hands
        // out from here on must exceed everything already logged.
        if let Some(max_logged) = spec
            .external_inputs()
            .iter()
            .filter_map(|w| log.last_vt(w.id()))
            .max()
        {
            config.clock.advance_to(max_logged);
        }
        let router = Router::new(config.faults.clone());
        let (outputs_tx, outputs_rx) = unbounded();
        let obs = Arc::new(tart_obs::ObsHub::new());
        log.set_obs(Arc::clone(&obs));
        store.set_obs(Arc::clone(&obs));
        let standby = config.standby.clone().map(|s| {
            StandbyPlane::start(
                s,
                spec.clone(),
                placement.clone(),
                config.clone(),
                router.clone(),
                outputs_tx.clone(),
                Arc::clone(&obs),
            )
        });
        let host = Arc::new(EngineHost {
            spec,
            placement,
            config,
            router,
            outputs_tx,
            engines: Mutex::new(HashMap::new()),
            durable: Some(Arc::clone(&store)),
            obs,
            standby,
        });
        let mut cluster = Cluster {
            host: Arc::clone(&host),
            injectors: HashMap::new(),
            sources: HashMap::new(),
            log: Arc::new(Mutex::new(log)),
            outputs_rx,
            replay_service: None,
            supervisor: None,
        };
        // Phase 1: register EVERY inbox (and the log-replay service) before
        // any restore runs — restore sends replay requests to peers, which
        // must queue in live channels rather than vanish.
        let mut inboxes = Vec::new();
        for engine in host.placement.engines() {
            let (tx, rx) = unbounded::<Envelope>();
            host.router.register(engine, tx.clone());
            inboxes.push((engine, tx, rx));
        }
        for w in host.spec.external_inputs() {
            let name = match w.from() {
                tart_model::Endpoint::External { name } => name.clone(),
                _ => unreachable!("external input wires start externally"),
            };
            let target_component = w.to().component().expect("external inputs feed components");
            let target = host
                .placement
                .engine_of(target_component)
                .expect("placement covers the app");
            // Producers resume exactly where the log ends: the watermark
            // floor guarantees post-restart sends continue the `prev_vt`
            // chain past everything already durable.
            let logged = cluster.log.lock().last_vt(w.id());
            let state = Arc::new(Mutex::new(SourceState {
                wire: w.id(),
                target,
                watermark: logged,
                last_data: logged,
                finished: false,
            }));
            cluster.sources.insert(w.id(), Arc::clone(&state));
            cluster.injectors.insert(
                name.clone(),
                Injector {
                    name,
                    state,
                    log: Arc::clone(&cluster.log),
                    router: host.router.clone(),
                    clock: Arc::clone(&host.config.clock),
                },
            );
        }
        cluster.spawn_replay_service();
        // Phase 2: restore each engine and start its loop.
        let components = component_recoveries(&host.spec, &host.placement, &d, &cluster.log.lock());
        let mut report = RecoveryReport {
            wal_records: wal_recovery.records.len(),
            wal_truncated_bytes: wal_recovery.truncated_bytes,
            wal_segments: wal_recovery.segments,
            engines: Vec::new(),
            components,
        };
        for (engine, tx, rx) in inboxes {
            let (chain, faults, generation, fell_back) = {
                let idx = restored
                    .iter()
                    .position(|(e, ..)| *e == engine)
                    .expect("restored covers every placed engine");
                let (_, chain, faults, generation, fell_back) = restored.swap_remove(idx);
                (chain, faults, generation, fell_back)
            };
            let replica = ReplicaStore::new();
            // Hash-verified cold restart: the loaded chain passed the
            // store's CRC and seal checks, and restore re-derives the live
            // state hash against the recorded one — a divergent suffix is
            // discarded rather than resumed. A chain discarded to nothing
            // is terminal: tear down whatever already started and report,
            // rather than resuming an engine with its history erased.
            let (core, diverged) = match host.restore_verified(engine, &replica, chain, &faults) {
                Ok(restored) => restored,
                Err(discarded) => {
                    for started in host.engine_ids() {
                        host.kill(started);
                    }
                    host.router.send(EXTERNAL_ENGINE, Envelope::Die);
                    return Err(DeployError::DurabilityUnavailable(format!(
                        "engine {engine}: all {discarded} restored checkpoint generations failed verification"
                    )));
                }
            };
            let fell_back = fell_back || diverged;
            let metrics = core.metrics_handle();
            let thread = host.spawn_engine_loop(engine, core, rx, true);
            host.engines.lock().insert(
                engine,
                EngineSlot {
                    sender: tx,
                    thread: Some(thread),
                    replica,
                    metrics,
                    alive: true,
                },
            );
            report.engines.push(EngineRecovery {
                engine,
                generation,
                fell_back,
            });
        }
        if let Some(supervision) = host.config.supervision.clone() {
            cluster.supervisor = Some(Supervisor::start(Arc::clone(&host), supervision));
        }
        Ok((cluster, report))
    }

    /// The replay service answers replay requests for external wires from
    /// the message log (§II.F.4: external messages "are re-sent from the
    /// log").
    fn spawn_replay_service(&mut self) {
        let (tx, rx) = unbounded::<Envelope>();
        self.host.router.register(EXTERNAL_ENGINE, tx);
        let router = self.host.router.clone();
        let log = Arc::clone(&self.log);
        let sources: HashMap<WireId, Arc<Mutex<SourceState>>> = self
            .sources
            .iter()
            .map(|(w, s)| (*w, Arc::clone(s)))
            .collect();
        let targets: HashMap<WireId, EngineId> = self
            .host
            .spec
            .external_inputs()
            .iter()
            .filter_map(|w| {
                let c = w.to().component()?;
                Some((w.id(), self.host.placement.engine_of(c)?))
            })
            .collect();
        let thread = std::thread::Builder::new()
            .name("tart-log-replay".into())
            .spawn(move || {
                while let Ok(env) = rx.recv() {
                    match env {
                        Envelope::ReplayRequest { wire, from } => {
                            let Some(&target) = targets.get(&wire) else {
                                continue;
                            };
                            let frames = log.lock().replay_from(wire, from);
                            let count = frames.len() as u64;
                            let mut prev = VirtualTime::ZERO;
                            for (vt, payload) in frames {
                                router.send(
                                    target,
                                    Envelope::Data {
                                        wire,
                                        vt,
                                        prev_vt: prev,
                                        payload,
                                    },
                                );
                                prev = vt;
                            }
                            let through = sources
                                .get(&wire)
                                .map(|s| {
                                    let s = s.lock();
                                    if s.finished {
                                        VirtualTime::MAX
                                    } else {
                                        s.watermark.unwrap_or(VirtualTime::ZERO)
                                    }
                                })
                                .unwrap_or(VirtualTime::ZERO);
                            router.send(
                                target,
                                Envelope::ReplayDone {
                                    wire,
                                    through,
                                    frames: count,
                                },
                            );
                        }
                        Envelope::Die => return,
                        _ => {}
                    }
                }
            })
            .expect("spawn log-replay thread");
        self.replay_service = Some(thread);
    }

    /// The injector for the external producer `name`.
    pub fn injector(&self, name: &str) -> Option<&Injector> {
        self.injectors.get(name)
    }

    /// Declares end-of-stream on every external producer.
    pub fn finish_inputs(&self) {
        for inj in self.injectors.values() {
            inj.finish();
        }
    }

    /// Heartbeats every idle external producer (promising silence up to
    /// now), unsticking downstream pessimism delays in real-time runs.
    pub fn heartbeat_inputs(&self) {
        for inj in self.injectors.values() {
            inj.heartbeat();
        }
    }

    /// Triggers an immediate soft checkpoint on `engine`.
    pub fn checkpoint_now(&self, engine: EngineId) {
        self.host.router.send(engine, Envelope::Checkpoint);
    }

    /// Switches the silence propagation strategy on every engine, live.
    /// No determinism fault is needed: only the communication of silence
    /// changes, never which ticks are silent (§II.G.4).
    pub fn set_silence_policy(&self, policy: tart_silence::SilencePolicy) {
        let engines = self.host.engines.lock();
        for (id, slot) in engines.iter() {
            if slot.alive {
                self.host
                    .router
                    .send(*id, Envelope::SetSilencePolicy { policy });
            }
        }
    }

    /// Installs a re-calibrated estimator for `component` (a determinism
    /// fault, logged before use — §II.G.4).
    pub fn recalibrate(&self, component: ComponentId, spec: EstimatorSpec) {
        if let Some(engine) = self.host.placement.engine_of(component) {
            self.host
                .router
                .send(engine, Envelope::Recalibrate { component, spec });
        }
    }

    /// Fail-stops `engine` (the manual failure drill; see
    /// [`EngineHost::kill`]). Under supervision, the supervisor leaves
    /// manually killed engines alone — recovery stays manual via
    /// [`Cluster::promote`].
    pub fn kill(&mut self, engine: EngineId) {
        self.host.kill(engine);
    }

    /// Promotes `engine`'s passive replica (the manual recovery drill; see
    /// [`EngineHost::promote`]). Warm when a standby slot is anchored,
    /// cold otherwise.
    ///
    /// # Errors
    ///
    /// See [`PromoteError`] — promoting a live or unknown engine, or one
    /// whose every checkpoint generation failed verification, reports
    /// instead of panicking.
    pub fn promote(&mut self, engine: EngineId) -> Result<(), PromoteError> {
        self.host.promote(engine)
    }

    /// The warm-standby slot view for `engine`: `None` when no standby
    /// plane is configured or no stream member has arrived yet.
    pub fn standby_status(&self, engine: EngineId) -> Option<StandbyStatus> {
        self.host.standby.as_ref().and_then(|p| p.status(engine))
    }

    /// Chaos hook: corrupt a recorded digest on the next checkpoint
    /// `engine`'s warm standby applies, forcing a divergence demotion (the
    /// standby-divergence drill). The authoritative replica chain is
    /// untouched, so recovery still converges through the cold path.
    /// Returns `false` when no standby plane is running.
    pub fn corrupt_standby(&self, engine: EngineId) -> bool {
        match &self.host.standby {
            Some(plane) => {
                plane.corrupt_next(engine);
                true
            }
            None => false,
        }
    }

    /// All deployed engine ids, ascending.
    pub fn engine_ids(&self) -> Vec<EngineId> {
        self.host.engine_ids()
    }

    /// A snapshot of `engine`'s metrics.
    pub fn engine_metrics(&self, engine: EngineId) -> Option<EngineMetrics> {
        self.host.engine_metrics(engine)
    }

    /// A snapshot of the liveness supervisor's counters, when supervision
    /// is enabled.
    pub fn supervision_metrics(&self) -> Option<SupervisionMetrics> {
        self.supervisor.as_ref().map(|s| s.metrics())
    }

    /// `(dropped, duplicated)` counts from the link fault injector.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.host.router.fault_counts()
    }

    /// The cluster's observability hub (metrics registry + flight
    /// recorder). Shared by every engine, the WAL and the checkpoint store.
    pub fn obs(&self) -> &Arc<tart_obs::ObsHub> {
        &self.host.obs
    }

    /// A point-in-time copy of every obs metric plus the event timeline.
    pub fn obs_snapshot(&self) -> tart_obs::ObsSnapshot {
        self.host.obs.snapshot()
    }

    /// Writes the canonical `obs-report.json` for this cluster (to
    /// `$TART_OBS_REPORT`, or `obs-report.json` in the current directory)
    /// and returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_obs_report(&self) -> std::io::Result<std::path::PathBuf> {
        tart_obs::write_report(&self.host.obs.snapshot())
    }

    /// Number of checkpoints currently held by `engine`'s replica.
    pub fn replica_depth(&self, engine: EngineId) -> usize {
        self.host.replica_depth(engine)
    }

    /// Starts a background chaos driver executing `plan` against this
    /// cluster: crashes are injected as unannounced fail-stops that the
    /// supervisor must detect and recover, partitions and latency spikes
    /// disturb payload links.
    ///
    /// # Panics
    ///
    /// Panics if supervision is not enabled — without a failure detector,
    /// injected crashes would never be recovered.
    pub fn launch_chaos(&self, plan: ChaosPlan) -> ChaosHandle {
        let supervisor = self
            .supervisor
            .as_ref()
            .expect("launch_chaos requires ClusterConfig::with_supervision");
        crate::chaos::launch(self.host.router.clone(), supervisor.metrics_handle(), plan)
    }

    /// Non-blocking drain of whatever outputs have been produced so far.
    ///
    /// Handing a record to the caller is the consumer-side ack: the owning
    /// engine gets an ordinary `TrimAck` so that, under durability, its
    /// external output-retention buffer can drop everything a cold restart
    /// no longer needs to re-emit. Outputs never drained stay retained —
    /// and ride in every checkpoint — until someone takes them.
    pub fn take_outputs(&self) -> Vec<OutputRecord> {
        let outs: Vec<OutputRecord> = self.outputs_rx.try_iter().collect();
        let mut drained: BTreeMap<WireId, VirtualTime> = BTreeMap::new();
        for o in &outs {
            let hi = drained.entry(o.wire).or_insert(o.vt);
            if o.vt > *hi {
                *hi = o.vt;
            }
        }
        if !drained.is_empty() {
            let engines = self.host.engines.lock();
            for (wire, through) in drained {
                let owner = self
                    .host
                    .spec
                    .wire(wire)
                    .and_then(|w| w.from().component())
                    .and_then(|c| self.host.placement.engine_of(c));
                if let Some(slot) = owner.and_then(|e| engines.get(&e)) {
                    if slot.alive {
                        let _ = slot.sender.send(Envelope::TrimAck { wire, through });
                    }
                }
            }
        }
        outs
    }

    /// Abruptly fail-stops the **entire cluster** — every engine killed in
    /// place, no drain, no final checkpoint — approximating a whole-process
    /// `SIGKILL` while keeping the test in-process. Whatever had reached
    /// disk at this instant is all a later [`Cluster::recover_from_disk`]
    /// gets. Returns the outputs that had already been collected.
    pub fn crash(mut self) -> Vec<OutputRecord> {
        self.crash_inner(false).0
    }

    /// [`Cluster::crash`], plus per-component loss accounting: the WAL's
    /// open group-commit window is dropped on the floor (a plain `crash`
    /// lets the backend flush it on drop, which a real `SIGKILL` would
    /// not), and the report says exactly how many external inputs each
    /// component had inside that window ([`CrashReport::lost_inputs`]) and
    /// how many were on memory-only wires and were never persisted at all
    /// ([`CrashReport::memory_only_inputs`]).
    ///
    /// This is the drill behind the tier loss bounds in `DURABILITY.md`:
    /// Strict components must never appear in `lost_inputs`, Buffered
    /// components lose at most one open window.
    pub fn crash_with_report(mut self) -> (Vec<OutputRecord>, CrashReport) {
        self.crash_inner(true)
    }

    fn crash_inner(&mut self, discard_open_window: bool) -> (Vec<OutputRecord>, CrashReport) {
        dump_flight(&self.host.obs, "cluster crash drill");
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        for id in self.host.engine_ids() {
            self.host.kill(id);
        }
        let mut report = CrashReport::default();
        if discard_open_window {
            let log_crash = self.log.lock().crash_discard();
            let component_of: BTreeMap<WireId, ComponentId> = self
                .host
                .spec
                .external_inputs()
                .iter()
                .filter_map(|w| Some((w.id(), w.to().component()?)))
                .collect();
            for (bucket, wires) in [
                (&mut report.lost_inputs, log_crash.lost),
                (&mut report.memory_only_inputs, log_crash.memory_only),
            ] {
                for (wire, n) in wires {
                    if let Some(c) = component_of.get(&wire) {
                        *bucket.entry(*c).or_insert(0) += n;
                    }
                }
            }
        }
        self.host.router.send(EXTERNAL_ENGINE, Envelope::Die);
        if let Some(t) = self.replay_service.take() {
            let _ = t.join();
        }
        (self.outputs_rx.try_iter().collect(), report)
    }

    /// Gracefully drains and joins every engine, returning all external
    /// outputs (including any recovery stutter — see
    /// [`Cluster::dedup_outputs`]).
    pub fn shutdown(mut self) -> Vec<OutputRecord> {
        // Stop the liveness supervisor FIRST: draining engines stop
        // heartbeating, and the detector must not "recover" them mid-exit.
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.stop();
        }
        {
            let engines = self.host.engines.lock();
            for slot in engines.values() {
                if slot.alive {
                    let _ = slot.sender.send(Envelope::Drain);
                }
            }
        }
        let threads: Vec<JoinHandle<()>> = {
            let mut engines = self.host.engines.lock();
            engines
                .values_mut()
                .filter_map(|s| s.thread.take())
                .collect()
        };
        for t in threads {
            let _ = t.join();
        }
        self.host.router.send(EXTERNAL_ENGINE, Envelope::Die);
        if let Some(t) = self.replay_service.take() {
            let _ = t.join();
        }
        self.outputs_rx.try_iter().collect()
    }

    /// Removes output stutter: keeps, per wire, only the first record at
    /// each virtual time, in virtual-time order — exactly the compensation
    /// the paper expects monotonic-output consumers to apply (§II.A).
    pub fn dedup_outputs(mut outputs: Vec<OutputRecord>) -> Vec<OutputRecord> {
        outputs.sort_by_key(|o| (o.wire, o.vt));
        outputs.dedup_by_key(|o| (o.wire, o.vt));
        outputs.sort_by_key(|o| (o.vt, o.wire));
        outputs
    }
}

/// What [`Cluster::recover_from_disk`] found on disk.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// External-input records recovered from the WAL.
    pub wal_records: usize,
    /// Bytes truncated from the WAL's torn tail (0 on a clean shutdown).
    pub wal_truncated_bytes: u64,
    /// WAL segments scanned.
    pub wal_segments: usize,
    /// Per-engine restart points, in engine-id order.
    pub engines: Vec<EngineRecovery>,
    /// Per-component external-input accounting, in component-id order.
    pub components: Vec<ComponentRecovery>,
}

/// One component's external-input recovery accounting in a
/// [`RecoveryReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ComponentRecovery {
    /// The component.
    pub component: ComponentId,
    /// Its resolved durability tier.
    pub tier: DurabilityPolicy,
    /// External-input records recovered from the WAL for this component's
    /// wires. Compared against the pre-crash append count, the shortfall
    /// is exactly what sat inside the open flush window (Buffered) or was
    /// never persisted (InMemory).
    pub recovered_inputs: u64,
    /// `true` for [`DurabilityPolicy::InMemory`] components: nothing was
    /// on disk by design, and peer replay is the only recovery source.
    pub replay_from_peers_only: bool,
}

/// Per-component cost of a [`Cluster::crash_with_report`] drill. Absent
/// components lost nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Buffered-tier external inputs inside the open group-commit window
    /// at the instant of the crash — bounded by one flush window
    /// ([`crate::BUFFERED_MAX_RECORDS`] records) per wire. A Strict
    /// component appearing here is a durability-contract violation.
    pub lost_inputs: BTreeMap<ComponentId, u64>,
    /// InMemory-tier external inputs, never persisted by design.
    pub memory_only_inputs: BTreeMap<ComponentId, u64>,
}

/// Pins every external-input wire of `log` to its destination component's
/// durability tier (component → engine → cluster default).
fn apply_wire_tiers(
    spec: &AppSpec,
    placement: &Placement,
    d: &DurabilityConfig,
    log: &mut MessageLog,
) {
    for w in spec.external_inputs() {
        let Some(c) = w.to().component() else {
            continue;
        };
        log.set_wire_tier(w.id(), d.resolve_tier(c, placement.engine_of(c)));
    }
}

/// Builds the per-component recovery accounting for a cold restart: how
/// many external inputs each component got back from the WAL, under which
/// tier.
fn component_recoveries(
    spec: &AppSpec,
    placement: &Placement,
    d: &DurabilityConfig,
    log: &MessageLog,
) -> Vec<ComponentRecovery> {
    let mut per: BTreeMap<ComponentId, ComponentRecovery> = BTreeMap::new();
    for w in spec.external_inputs() {
        let Some(c) = w.to().component() else {
            continue;
        };
        let tier = d.resolve_tier(c, placement.engine_of(c));
        let entry = per.entry(c).or_insert_with(|| ComponentRecovery {
            component: c,
            tier,
            recovered_inputs: 0,
            replay_from_peers_only: tier == DurabilityPolicy::InMemory,
        });
        entry.recovered_inputs += log.wire_len(w.id()) as u64;
    }
    per.into_values().collect()
}

/// One engine's restart point in a [`RecoveryReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineRecovery {
    /// The engine.
    pub engine: EngineId,
    /// The checkpoint generation it restored from; `None` means no durable
    /// checkpoint existed and it restarted from scratch (full replay).
    pub generation: Option<u64>,
    /// `true` if recovery did not restore through the newest persisted
    /// generation — a damaged full or delta forced a shorter or older
    /// restore chain.
    pub fell_back: bool,
}

/// Brings up the durability layer for a **fresh** deployment: refuses a
/// directory holding prior WAL/checkpoint state (that state belongs to
/// [`Cluster::recover_from_disk`]).
fn open_fresh_durability(
    d: &DurabilityConfig,
) -> Result<(MessageLog, Arc<CheckpointStore>), DeployError> {
    for sub in ["wal", "ckpt"] {
        let p = d.dir.join(sub);
        let populated = std::fs::read_dir(&p)
            .map(|mut it| it.next().is_some())
            .unwrap_or(false);
        if populated {
            return Err(DeployError::DurabilityDirNotEmpty);
        }
    }
    std::fs::create_dir_all(&d.dir)
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    let (log, _recovery) = MessageLog::durable(d.dir.join("wal"), d.wal_segment_bytes)
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    let store = CheckpointStore::open(d.dir.join("ckpt"))
        .map_err(|e| DeployError::DurabilityUnavailable(e.to_string()))?;
    Ok((log, Arc::new(store)))
}

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("engines", &self.host.engines.lock().len())
            .field("injectors", &self.injectors.len())
            .field("supervised", &self.supervisor.is_some())
            .finish()
    }
}
