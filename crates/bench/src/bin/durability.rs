//! Tiered durability — the contract, measured.
//!
//! Two halves, matching the two normative claims in `DURABILITY.md`:
//!
//! - **Raw lanes** — the same WAL appended through the Strict lane (fsync
//!   before the call returns) and the Buffered lane (staged into a group
//!   commit window, flushed at the window deadline or the record cap).
//!   Reports appends/s per tier and the fsync latency distribution each
//!   lane actually paid (from the per-tier obs histograms the flusher
//!   records). The Buffered lane must buy ≥ 5x the Strict lane's append
//!   rate — that ratio is the whole reason the tier exists.
//! - **Crash drill** — a mixed-tier cluster (ledger Strict, ingest
//!   Buffered, cache InMemory, one engine each) crash-looped for seeded
//!   rounds via [`Cluster::crash_with_report`] + recovery from disk.
//!   Across every round: the Strict component loses **zero** inputs, the
//!   Buffered component loses at most one flush window
//!   ([`BUFFERED_MAX_RECORDS`]), and the InMemory component's inputs show
//!   up only in the memory-only bucket. The ledger's deduplicated outputs
//!   at the end must be the exact sequence 1..=sent — zero loss,
//!   end to end.
//!
//! Full runs write `BENCH_durability.json` at the workspace root
//! (committed — later sessions diff against it). `--quick` trims counts,
//! leaves the baseline untouched, and *gates*: Strict loss must be 0,
//! Buffered loss ≤ one window, Buffered/Strict appends/s ≥ 5x, and — when
//! a committed baseline exists — the current ratio must be at least half
//! the committed one. Ratios only, never absolute rates: CI hardware
//! varies, "buffered divided by strict on the same box" does not.

// Measurement harness (tart-lint tier: Exempt): its purpose is wall-clock timing.
#![allow(clippy::disallowed_methods)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use tart_bench::{json_f64, print_table, quick_mode};
use tart_engine::{
    Cluster, ClusterConfig, DurabilityPolicy, Histogram, ObsHub, OutputRecord, Placement, Wal,
    BUFFERED_MAX_RECORDS,
};
use tart_estimator::EstimatorSpec;
use tart_model::{
    AppSpec, BlockId, CheckpointMode, CkptCell, Component, Ctx, RestoreError, Snapshot, Value,
};
use tart_obs::hist::bucket_upper_bound;
use tart_vtime::{ComponentId, EngineId, PortId, VirtualTime};

// ---------------------------------------------------------------------------
// Raw lane microbench
// ---------------------------------------------------------------------------

/// Appends `n` records through one lane of a fresh WAL and returns
/// (appends per second, the fsync histogram that lane populated).
fn lane_bench(tier: DurabilityPolicy, label: &str, n: usize) -> (f64, Histogram) {
    let dir = std::env::temp_dir().join(format!(
        "tart-bench-durability-{label}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let body = [0xA5u8; 64];
    let hub = Arc::new(ObsHub::new());
    // The WAL has no policy of its own: the only syncs are the ones the
    // lane demands — exactly what the tier contract prices.
    let mut wal = Wal::create(&dir, 4 << 20).expect("create wal");
    wal.set_obs(Arc::clone(&hub));
    let t0 = Instant::now();
    for _ in 0..n {
        wal.append_lane(&body, tier).expect("append_lane");
    }
    wal.sync().expect("final sync");
    let per_sec = n as f64 / t0.elapsed().as_secs_f64();
    drop(wal);
    std::fs::remove_dir_all(&dir).ok();
    let snap = hub.snapshot();
    let hist = if matches!(tier, DurabilityPolicy::Strict) {
        snap.wal_fsync_strict_ns
    } else {
        snap.wal_fsync_buffered_ns
    };
    (per_sec, hist)
}

/// Percentile from the log-bucketed histogram: the upper bound of the
/// bucket holding the p-th sample (the same resolution the obs report has).
fn hist_percentile_ns(h: &Histogram, p: f64) -> u64 {
    let total = h.count();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64 * p).ceil() as u64).max(1);
    let mut acc = 0u64;
    for (idx, count) in h.nonzero_buckets() {
        acc += count;
        if acc >= target {
            return bucket_upper_bound(idx);
        }
    }
    h.max()
}

// ---------------------------------------------------------------------------
// Mixed-tier crash drill
// ---------------------------------------------------------------------------

/// A sequence-stamping echo: acks every message with a monotonically
/// increasing sequence number it checkpoints. Distinct output sequences ==
/// distinct inputs processed, which is what the loss accounting counts.
struct Echo {
    seq: CkptCell<u64>,
}

impl Component for Echo {
    fn on_message(&mut self, _port: PortId, _msg: &Value, ctx: &mut dyn Ctx) {
        ctx.tick_block(BlockId(0), 1);
        self.seq.update(|s| *s += 1);
        ctx.send(PortId::new(1), Value::I64(*self.seq.get() as i64));
    }

    fn checkpoint(&mut self, mode: CheckpointMode, vt: VirtualTime) -> Snapshot {
        let mut snap = Snapshot::new(vt);
        if let Some(chunk) = self.seq.take_chunk(mode) {
            snap.put("seq", chunk);
        }
        snap
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), RestoreError> {
        for (field, chunk) in snapshot.iter() {
            match field {
                "seq" => self
                    .seq
                    .apply_chunk(chunk)
                    .map_err(|source| RestoreError::Corrupt {
                        field: field.to_owned(),
                        source,
                    })?,
                other => {
                    return Err(RestoreError::UnknownField {
                        field: other.to_owned(),
                    })
                }
            }
        }
        Ok(())
    }
}

const TIERED: &[(&str, &str)] = &[
    ("Ledger", "ledger"),
    ("Ingest", "ingest"),
    ("Cache", "cache"),
];

fn mixed_app() -> AppSpec {
    let mut b = AppSpec::builder();
    for (name, wire) in TIERED {
        let c = b.component(
            name,
            Arc::new(|| {
                Box::new(Echo {
                    seq: CkptCell::new(0),
                }) as Box<dyn Component>
            }),
        );
        b.wire_in(&format!("{wire}_in"), c, PortId::new(0));
        b.wire_out(c, PortId::new(1), &format!("{wire}_out"));
    }
    b.build().expect("mixed-tier topology is valid")
}

/// One engine per component, so each engine carries exactly one tier.
fn mixed_placement(spec: &AppSpec) -> Placement {
    let mut p = Placement::new();
    for (i, (name, _)) in TIERED.iter().enumerate() {
        let c = spec.component_by_name(name).expect("component exists");
        p.assign(c.id(), EngineId::new(i as u32));
    }
    p
}

fn mixed_config(spec: &AppSpec, dir: &std::path::Path) -> ClusterConfig {
    let id = |name: &str| -> ComponentId { spec.component_by_name(name).expect("exists").id() };
    let mut config = ClusterConfig::logical_time()
        .with_checkpoint_every(4)
        .with_durability(dir, DurabilityPolicy::Strict)
        .with_component_tier(id("Ledger"), DurabilityPolicy::Strict)
        .with_component_tier(
            id("Ingest"),
            DurabilityPolicy::Buffered {
                flush_window: Duration::from_secs(3600),
            },
        )
        .with_component_tier(id("Cache"), DurabilityPolicy::InMemory);
    for (name, _) in TIERED {
        config = config.with_estimator(id(name), EstimatorSpec::per_iteration(BlockId(0), 10_000));
    }
    config
}

/// A tiny deterministic LCG so every round's traffic mix is seeded.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

struct DrillOutcome {
    strict_lost_total: u64,
    buffered_lost_total: u64,
    buffered_lost_max_round: u64,
    recover_secs: Vec<f64>,
}

/// Crash-loops a mixed-tier cluster for `rounds` seeded rounds and
/// accounts per-tier loss against the contract.
fn crash_drill(rounds: usize, seed: u64) -> DrillOutcome {
    let dir = std::env::temp_dir().join(format!(
        "tart-bench-durability-drill-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let spec = mixed_app();
    let ledger = spec.component_by_name("Ledger").expect("exists").id();
    let ingest = spec.component_by_name("Ingest").expect("exists").id();
    let cache = spec.component_by_name("Cache").expect("exists").id();

    let mut cluster = Cluster::deploy(
        spec.clone(),
        mixed_placement(&spec),
        mixed_config(&spec, &dir),
    )
    .expect("deploys");

    let mut rng = seed;
    let mut out = DrillOutcome {
        strict_lost_total: 0,
        buffered_lost_total: 0,
        buffered_lost_max_round: 0,
        recover_secs: Vec::with_capacity(rounds),
    };
    let mut sent_ledger = 0u64;
    let mut sent_ingest = 0u64;
    let mut lost_ingest = 0u64;
    let mut outputs: Vec<OutputRecord> = Vec::new();

    for round in 0..rounds {
        // Seeded traffic mix, interleaved so Strict barriers pin earlier
        // Buffered records the way live mixed traffic does.
        let k_ledger = 4 + lcg(&mut rng) % 8;
        let k_ingest = 4 + lcg(&mut rng) % 8;
        let k_cache = 2 + lcg(&mut rng) % 4;
        let k_max = k_ledger.max(k_ingest).max(k_cache);
        let mut round_cache = 0u64;
        for i in 0..k_max {
            if i < k_ledger {
                sent_ledger += 1;
                send(&cluster, "ledger_in", sent_ledger);
            }
            if i < k_ingest {
                sent_ingest += 1;
                send(&cluster, "ingest_in", sent_ingest);
            }
            if i < k_cache {
                round_cache += 1;
                send(&cluster, "cache_in", round_cache);
            }
        }
        // Let the ledger chew through everything it will ever be asked to
        // prove it kept; the crash may land mid-flight anywhere else.
        await_distinct(&cluster, &mut outputs, "ledger_out", sent_ledger, round);

        let snap = cluster.obs_snapshot();
        assert_eq!(snap.divergences_detected, 0, "clean drill must not diverge");

        let (crash_outputs, report) = cluster.crash_with_report();
        outputs.extend(crash_outputs);
        let strict_lost = report.lost_inputs.get(&ledger).copied().unwrap_or(0);
        let buffered_lost = report.lost_inputs.get(&ingest).copied().unwrap_or(0);
        let memory_only = report.memory_only_inputs.get(&cache).copied().unwrap_or(0);
        assert_eq!(
            strict_lost, 0,
            "round {round}: Strict inputs must survive every crash"
        );
        assert!(
            buffered_lost <= BUFFERED_MAX_RECORDS as u64,
            "round {round}: Buffered loss {buffered_lost} exceeds one flush window"
        );
        assert_eq!(
            memory_only, round_cache,
            "round {round}: every InMemory input is memory-only by contract"
        );
        out.strict_lost_total += strict_lost;
        out.buffered_lost_total += buffered_lost;
        out.buffered_lost_max_round = out.buffered_lost_max_round.max(buffered_lost);
        lost_ingest += buffered_lost;

        let t0 = Instant::now();
        let (recovered, recovery) = Cluster::recover_from_disk(
            spec.clone(),
            mixed_placement(&spec),
            mixed_config(&spec, &dir),
        )
        .expect("recovery from disk succeeds");
        out.recover_secs.push(t0.elapsed().as_secs_f64());
        cluster = recovered;

        for c in &recovery.components {
            let (want, peers_only) = match c.component {
                id if id == ledger => (sent_ledger, false),
                id if id == ingest => (sent_ingest - lost_ingest, false),
                id if id == cache => (0, true),
                other => panic!("unexpected component {other:?} in recovery report"),
            };
            assert_eq!(
                c.recovered_inputs, want,
                "round {round}: recovered inputs for {:?}",
                c.component
            );
            assert_eq!(c.replay_from_peers_only, peers_only);
        }
    }

    // End-to-end Strict transparency: after dedup, the ledger acked every
    // request exactly once, in sequence, across every crash.
    await_distinct(&cluster, &mut outputs, "ledger_out", sent_ledger, rounds);
    cluster.finish_inputs();
    outputs.extend(cluster.shutdown());
    let ledger_wire = *outputs
        .iter()
        .find(|o| o.consumer == "ledger_out")
        .map(|o| &o.wire)
        .expect("ledger produced output");
    let mut seqs: Vec<i64> = Cluster::dedup_outputs(outputs)
        .iter()
        .filter(|o| o.wire == ledger_wire)
        .map(|o| o.payload.as_i64().expect("ack seq"))
        .collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (1..=sent_ledger as i64).collect::<Vec<_>>(),
        "Strict tier must be transparent end to end"
    );
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn send(cluster: &Cluster, wire: &str, v: u64) {
    cluster
        .injector(wire)
        .expect("injector")
        .send(Value::I64(v as i64));
}

/// Polls until `expected` *distinct* sequence numbers arrived on `consumer`
/// (replay stutter duplicates, it never skips).
fn await_distinct(
    cluster: &Cluster,
    outputs: &mut Vec<OutputRecord>,
    consumer: &str,
    expected: u64,
    round: usize,
) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        outputs.extend(cluster.take_outputs());
        let mut seqs: Vec<i64> = outputs
            .iter()
            .filter(|o| o.consumer == consumer)
            .filter_map(|o| o.payload.as_i64())
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        if seqs.len() as u64 >= expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "round {round}: timed out waiting for {consumer}: {} of {expected} acks",
            seqs.len()
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let quick = quick_mode();
    let strict_n = if quick { 400 } else { 2_000 };
    let buffered_n = if quick { 20_000 } else { 100_000 };
    let rounds = if quick { 3 } else { 10 };

    println!(
        "Durability contract: {strict_n} strict + {buffered_n} buffered lane appends, \
         {rounds} mixed-tier crash rounds"
    );

    let (strict_rate, strict_hist) = lane_bench(DurabilityPolicy::Strict, "strict", strict_n);
    let (buffered_rate, buffered_hist) = lane_bench(
        DurabilityPolicy::Buffered {
            flush_window: Duration::from_millis(10),
        },
        "buffered",
        buffered_n,
    );
    let ratio = buffered_rate / strict_rate;
    let us = 1e-3;
    let strict_p50 = hist_percentile_ns(&strict_hist, 0.50) as f64 * us;
    let strict_p99 = hist_percentile_ns(&strict_hist, 0.99) as f64 * us;
    let buffered_p50 = hist_percentile_ns(&buffered_hist, 0.50) as f64 * us;
    let buffered_p99 = hist_percentile_ns(&buffered_hist, 0.99) as f64 * us;

    print_table(
        "WAL lanes (same log, one flusher)",
        &[
            "tier",
            "appends/s",
            "fsyncs",
            "fsync p50 (us)",
            "fsync p99 (us)",
        ],
        &[
            vec![
                "Strict (fsync per append)".into(),
                format!("{strict_rate:.0}"),
                format!("{}", strict_hist.count()),
                format!("{strict_p50:.0}"),
                format!("{strict_p99:.0}"),
            ],
            vec![
                "Buffered (group commit)".into(),
                format!("{buffered_rate:.0}"),
                format!("{}", buffered_hist.count()),
                format!("{buffered_p50:.0}"),
                format!("{buffered_p99:.0}"),
            ],
            vec![
                "buffered/strict".into(),
                format!("{ratio:.1}x"),
                String::new(),
                String::new(),
                String::new(),
            ],
        ],
    );

    let drill = crash_drill(rounds, 0xD17E);
    let mut rec = drill.recover_secs.clone();
    rec.sort_by(f64::total_cmp);
    let ms = 1_000.0;
    let recover_p50 = percentile(&rec, 0.50) * ms;
    let recover_p99 = percentile(&rec, 0.99) * ms;

    print_table(
        "Mixed-tier crash drill",
        &["quantity", "value"],
        &[
            vec!["rounds".into(), format!("{rounds}")],
            vec![
                "Strict inputs lost (total)".into(),
                format!("{}", drill.strict_lost_total),
            ],
            vec![
                "Buffered inputs lost (worst round)".into(),
                format!(
                    "{} (window cap {})",
                    drill.buffered_lost_max_round, BUFFERED_MAX_RECORDS
                ),
            ],
            vec![
                "recover from disk p50 (ms)".into(),
                format!("{recover_p50:.2}"),
            ],
            vec![
                "recover from disk p99 (ms)".into(),
                format!("{recover_p99:.2}"),
            ],
        ],
    );

    // Contract gates hold in EVERY mode — they are the durability semantics,
    // not a performance budget.
    assert_eq!(drill.strict_lost_total, 0, "Strict loss must be zero");
    assert!(
        drill.buffered_lost_max_round <= BUFFERED_MAX_RECORDS as u64,
        "Buffered loss must fit one flush window"
    );

    // Baseline comparison BEFORE overwriting the file. Ratios only.
    let baseline = std::fs::read_to_string("BENCH_durability.json").ok();
    let mut regressions = Vec::new();
    if let Some(base) = &baseline {
        if let Some(was) = json_f64(base, "buffered_over_strict") {
            if ratio < was / 2.0 {
                regressions.push(format!(
                    "buffered_over_strict: {ratio:.1}x vs committed {was:.1}x"
                ));
            }
        }
    } else {
        eprintln!("no committed BENCH_durability.json — first run, nothing to compare");
    }

    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"durability\",\n  \"mode\": \"full\",\n  \
             \"strict_appends\": {strict_n},\n  \"buffered_appends\": {buffered_n},\n  \
             \"strict_appends_per_sec\": {strict_rate:.0},\n  \
             \"buffered_appends_per_sec\": {buffered_rate:.0},\n  \
             \"buffered_over_strict\": {ratio:.1},\n  \
             \"strict_fsync_p50_us\": {strict_p50:.0},\n  \
             \"strict_fsync_p99_us\": {strict_p99:.0},\n  \
             \"buffered_fsync_p50_us\": {buffered_p50:.0},\n  \
             \"buffered_fsync_p99_us\": {buffered_p99:.0},\n  \
             \"crash_rounds\": {rounds},\n  \
             \"strict_lost_total\": {},\n  \
             \"buffered_lost_total\": {},\n  \
             \"buffered_lost_max_round\": {},\n  \
             \"flush_window_cap_records\": {BUFFERED_MAX_RECORDS},\n  \
             \"recover_p50_ms\": {recover_p50:.2},\n  \"recover_p99_ms\": {recover_p99:.2}\n}}\n",
            drill.strict_lost_total, drill.buffered_lost_total, drill.buffered_lost_max_round,
        );
        std::fs::write("BENCH_durability.json", &json).expect("write BENCH_durability.json");
        println!("wrote BENCH_durability.json");
    }

    if quick {
        tart_bench::write_quick_ratios("durability", &[("buffered_over_strict", ratio)]);
        assert!(
            ratio >= 5.0,
            "Buffered lane must be ≥5x Strict appends/s, got {ratio:.1}x \
             (strict {strict_rate:.0}/s, buffered {buffered_rate:.0}/s)"
        );
        assert!(
            regressions.is_empty(),
            ">2x regression vs committed baseline: {regressions:?}"
        );
        println!(
            "quick gates passed (strict loss 0, buffered loss ≤ one window, \
             buffered ≥5x strict, no >2x baseline regression)"
        );
    }
}
