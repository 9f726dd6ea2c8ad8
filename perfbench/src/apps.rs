//! The applications under test, their seeded inputs, and the single-threaded
//! reference each run's outputs are checked against.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use tart_engine::{ClusterConfig, DurabilityPolicy, FsyncPolicy, OutputRecord, Placement};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{fan_in_app, MERGER_BLOCK, SENDER_LOOP_BLOCK};
use tart_model::{
    AppSpec, BlockId, CheckpointMode, CkptCell, CkptMap, Component, Ctx, RestoreError, Snapshot,
    Value,
};
use tart_stats::DetRng;
use tart_vtime::{EngineId, PortId, VirtualTime};

/// Words per fan-in sentence. Fixed, so every sentence costs the senders'
/// per-word estimator the same virtual time and the Merger merges in send
/// order: output `seq` k is the k-th message sent, which is how a receipt
/// is matched to its scheduled instant.
const WORDS_PER_SENTENCE: usize = 4;
/// Distinct words; drawn with a quadratic skew so a few words are hot and
/// the senders' count tables keep growing slowly (incremental checkpoints
/// carry a few changed keys each).
const VOCABULARY: f64 = 4096.0;
/// Virtual-time estimates, in ticks (ns under the real-time clock). Near
/// the handlers' measured cost, as a calibrated deployment would set them.
const SENDER_NS_PER_WORD: u64 = 1_000;
const MERGER_NS: u64 = 2_000;
const LEDGER_NS: u64 = 10_000;
/// Soft-checkpoint cadence of the fan-in app (messages per engine).
const FANIN_CHECKPOINT_EVERY: u64 = 64;
/// The durable fan-in's cadence. Every durable persist fsyncs the store's
/// manifest on the engine thread; at 64 those fsyncs tied the workload's
/// latency and knee to the host disk's stalls.
const DURABLE_CHECKPOINT_EVERY: u64 = 1024;
/// Buffered flush window of the durable fan-in: a crash loses at most
/// this much acknowledged input on the Buffered wires.
pub const FLUSH_WINDOW: Duration = Duration::from_millis(5);
/// Accounts in the failover ledger. Every checkpoint carries all of them,
/// so every message pays for a full capture and a cold promotion pays keys
/// × chain depth. 20K keys made one cold round take over a second; 128
/// keep the fixed-rate phase near a fifth of one core.
pub const LEDGER_KEYS: usize = 128;
/// The engine killed and promoted by the kill/promote drills: the Merger's
/// in the fan-in app, the ledger's in the failover app.
pub const FANIN_DRILL_ENGINE: EngineId = EngineId::new(1);
pub const LEDGER_ENGINE: EngineId = EngineId::new(0);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum App {
    /// Fig 1: two word-count senders on engine 0 fan into a Merger on
    /// engine 1.
    FanIn,
    /// A heavy-state, always-full-checkpoint ledger on engine 0.
    Ledger,
}

impl App {
    pub fn clients(self) -> &'static [&'static str] {
        match self {
            App::FanIn => &["client1", "client2"],
            App::Ledger => &["requests"],
        }
    }

    pub fn spec(self) -> AppSpec {
        match self {
            App::FanIn => fan_in_app(2).expect("Fig 1 topology is valid"),
            App::Ledger => ledger_app(),
        }
    }

    pub fn placement(self, spec: &AppSpec) -> Placement {
        match self {
            App::FanIn => {
                let mut p = Placement::new();
                for c in spec.components() {
                    let engine = if c.name() == "Merger" { 1 } else { 0 };
                    p.assign(c.id(), EngineId::new(engine));
                }
                p
            }
            App::Ledger => Placement::single_engine(spec),
        }
    }

    /// Real-time clock, so virtual time is wall-clock ns and the pessimism
    /// wait is the delay the paper prices.
    pub fn config(self, spec: &AppSpec) -> ClusterConfig {
        let id = |name: &str| spec.component_by_name(name).expect("component").id();
        match self {
            App::FanIn => ClusterConfig::real_time()
                .with_checkpoint_every(FANIN_CHECKPOINT_EVERY)
                .with_estimator(
                    id("Sender1"),
                    EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, SENDER_NS_PER_WORD),
                )
                .with_estimator(
                    id("Sender2"),
                    EstimatorSpec::per_iteration(SENDER_LOOP_BLOCK, SENDER_NS_PER_WORD),
                )
                .with_estimator(
                    id("Merger"),
                    EstimatorSpec::per_iteration(MERGER_BLOCK, MERGER_NS),
                ),
            App::Ledger => ClusterConfig::real_time()
                .with_checkpoint_every(1)
                .with_estimator(
                    id("Ledger"),
                    EstimatorSpec::per_iteration(BlockId(0), LEDGER_NS),
                ),
        }
    }

    /// The durable fan-in: every component has an explicit tier (no legacy
    /// untiered path), so the cluster-wide fsync policy governs no wire.
    /// The senders' inputs ride the Buffered group commit; the Merger is
    /// Strict, so its engine's checkpoint persists are fsynced. A Strict
    /// sender would put an fsync inside every `Injector::send` of its
    /// client, which tied the generator to the host disk's stalls.
    pub fn durable_config(self, spec: &AppSpec, dir: &Path) -> ClusterConfig {
        let id = |name: &str| spec.component_by_name(name).expect("component").id();
        let buffered = DurabilityPolicy::Buffered {
            flush_window: FLUSH_WINDOW,
        };
        self.config(spec)
            .with_checkpoint_every(DURABLE_CHECKPOINT_EVERY)
            .with_durability(dir, FsyncPolicy::Always)
            .with_component_tier(id("Sender1"), buffered)
            .with_component_tier(id("Sender2"), buffered)
            .with_component_tier(id("Merger"), DurabilityPolicy::Strict)
    }

    /// Draws the client of the next message. On the fan-in, `client1`
    /// carries a quarter of the traffic.
    pub fn pick_client(self, rng: &mut DetRng) -> usize {
        match self {
            App::FanIn => usize::from(rng.next_f64() >= 0.25),
            App::Ledger => 0,
        }
    }

    /// One seeded input; `index` numbers the ledger's requests.
    pub fn input(self, rng: &mut DetRng, index: u64) -> Value {
        match self {
            App::FanIn => {
                let words: Vec<String> = (0..WORDS_PER_SENTENCE)
                    .map(|_| {
                        let u = rng.next_f64();
                        format!("w{}", (u * u * VOCABULARY) as u64)
                    })
                    .collect();
                Value::from(words.join(" "))
            }
            App::Ledger => Value::I64(index as i64),
        }
    }
}

/// What a run sent, replayed through a single-threaded model of the app.
pub struct Reference {
    app: App,
    counts: Vec<BTreeMap<String, u64>>,
    total: i64,
    sent: u64,
}

impl Reference {
    pub fn new(app: App) -> Self {
        Reference {
            app,
            counts: vec![BTreeMap::new(); app.clients().len()],
            total: 0,
            sent: 0,
        }
    }

    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Applies one sent message (the WordCount of Code Body 1 for the
    /// fan-in; a plain count for the ledger).
    pub fn record(&mut self, client: usize, payload: &Value) {
        self.sent += 1;
        if self.app == App::FanIn {
            let table = &mut self.counts[client];
            for word in payload.as_str().unwrap_or("").split_whitespace() {
                let c = table.entry(word.to_owned()).or_insert(0);
                self.total += *c as i64;
                *c += 1;
            }
        }
    }

    /// The final `(seq, total)` the Merger must reach; the ledger's final
    /// ack is `sent` with no total.
    pub fn expected(&self) -> (u64, Option<i64>) {
        match self.app {
            App::FanIn => (self.sent, Some(self.total)),
            App::Ledger => (self.sent, None),
        }
    }
}

/// Deduplicated outputs: the first receipt of each `seq`, and how many
/// repeats disagreed with it (a divergence, never expected).
pub struct Tally {
    epoch: std::time::Instant,
    /// Indexed by seq; seqs are dense from 1.
    first: Vec<Option<Receipt>>,
    /// Outputs whose seq is 0 or absurdly far past anything sent.
    malformed: u64,
    pub divergent: u64,
    pub max_seq: u64,
}

#[derive(Clone, Copy)]
struct Receipt {
    at: f64,
    vt: VirtualTime,
    total: Option<i64>,
}

/// Seqs beyond this are malformed rather than indexed.
const SEQ_CAP: u64 = 1 << 26;

impl Tally {
    pub fn new(epoch: std::time::Instant) -> Self {
        Tally {
            epoch,
            first: Vec::new(),
            malformed: 0,
            divergent: 0,
            max_seq: 0,
        }
    }

    pub fn epoch(&self) -> std::time::Instant {
        self.epoch
    }

    /// Absorbs drained outputs; returns the seqs seen for the first time.
    pub fn absorb(&mut self, outs: Vec<OutputRecord>) -> Vec<u64> {
        let at = self.epoch.elapsed().as_secs_f64();
        let mut fresh = Vec::new();
        for o in outs {
            let (seq, total) = match &o.payload {
                Value::I64(s) => (*s as u64, None),
                p => (
                    p.get("seq").and_then(Value::as_i64).unwrap_or(0) as u64,
                    p.get("total").and_then(Value::as_i64),
                ),
            };
            if seq == 0 || seq > SEQ_CAP {
                self.malformed += 1;
                continue;
            }
            let i = seq as usize;
            if i >= self.first.len() {
                self.first.resize(i + 1, None);
            }
            match self.first[i] {
                // Replay stutter repeats an output exactly; anything else
                // at a seen seq means the replayed run diverged.
                Some(r) if r.vt == o.vt && r.total == total => {}
                Some(_) => self.divergent += 1,
                None => {
                    self.first[i] = Some(Receipt {
                        at,
                        vt: o.vt,
                        total,
                    });
                    self.max_seq = self.max_seq.max(seq);
                    fresh.push(seq);
                }
            }
        }
        fresh
    }

    fn get(&self, seq: u64) -> Option<&Receipt> {
        self.first.get(seq as usize).and_then(Option::as_ref)
    }

    /// Seconds since the epoch at which `seq` first arrived.
    pub fn receipt(&self, seq: u64) -> Option<f64> {
        self.get(seq).map(|r| r.at)
    }

    /// Failed operations against `reference`: every message without a
    /// deduplicated output, every seq that should not exist, every
    /// divergent repeat, and a wrong final total.
    pub fn failures(&self, reference: &Reference) -> u64 {
        let (want_seq, want_total) = reference.expected();
        let missing = (1..=want_seq).filter(|&s| self.get(s).is_none()).count() as u64;
        let spurious = self.malformed
            + self
                .first
                .iter()
                .skip(want_seq as usize + 1)
                .flatten()
                .count() as u64;
        let wrong_total = match (want_total, self.get(want_seq)) {
            (Some(t), Some(r)) => u64::from(r.total != Some(t)),
            _ => 0,
        };
        let failed = missing + spurious + self.divergent + wrong_total;
        if failed > 0 {
            eprintln!(
                "output check: {missing} missing, {spurious} spurious, {} divergent, \
                 final total wrong: {}",
                self.divergent,
                wrong_total == 1
            );
        }
        failed
    }
}

/// A ledger with deliberately heavy checkpointed state: every snapshot is
/// a full capture of all accounts (no incremental journal), so restoring a
/// chain costs keys × members — the cost a warm standby amortizes.
struct Ledger {
    accounts: CkptMap<String, u64>,
    seq: CkptCell<u64>,
}

impl Component for Ledger {
    fn on_message(&mut self, _port: PortId, msg: &Value, ctx: &mut dyn Ctx) {
        ctx.tick_block(BlockId(0), 1);
        let i = msg.as_i64().unwrap_or(0) as u64;
        let n = self.accounts.len() as u64;
        for stride in [1u64, 7, 13] {
            let key = format!("acct-{:06}", (i * stride) % n);
            let v = self.accounts.get(&key).copied().unwrap_or(0);
            self.accounts.insert(key, v + 1);
        }
        self.seq.update(|s| *s += 1);
        ctx.send(PortId::new(1), Value::I64(*self.seq.get() as i64));
    }

    fn checkpoint(&mut self, _mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
        let mut snap = Snapshot::new(vt);
        if let Some(chunk) = self.accounts.take_chunk(CheckpointMode::Full) {
            snap.put("accounts", chunk);
        }
        if let Some(chunk) = self.seq.take_chunk(CheckpointMode::Full) {
            snap.put("seq", chunk);
        }
        snap
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RestoreError> {
        for (field, chunk) in snapshot.iter() {
            let result = match field {
                "accounts" => self.accounts.apply_chunk(chunk),
                "seq" => self.seq.apply_chunk(chunk),
                other => {
                    return Err(RestoreError::UnknownField {
                        field: other.to_owned(),
                    })
                }
            };
            result.map_err(|source| RestoreError::Corrupt {
                field: field.to_owned(),
                source,
            })?;
        }
        Ok(())
    }
}

fn ledger_app() -> AppSpec {
    let mut b = AppSpec::builder();
    let ledger = b.component(
        "Ledger",
        Arc::new(|| {
            let mut accounts = CkptMap::new();
            for k in 0..LEDGER_KEYS {
                accounts.insert(format!("acct-{k:06}"), 0);
            }
            Box::new(Ledger {
                accounts,
                seq: CkptCell::new(0),
            }) as Box<dyn Component>
        }),
    );
    b.wire_in("requests", ledger, PortId::new(0));
    b.wire_out(ledger, PortId::new(1), "acks");
    b.build().expect("ledger topology is valid")
}
