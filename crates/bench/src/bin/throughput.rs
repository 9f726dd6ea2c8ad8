//! Hot-path throughput baseline: the repo's perf trajectory starts here.
//!
//! Four measurements, written to `BENCH_throughput.json` at the workspace
//! root (committed — later sessions diff against it):
//!
//! 1. **Local pipeline** — messages/sec through a deployed two-engine
//!    cluster on the in-process router (inject → process → output), run at
//!    two message counts (short and 10x sustained). The sustained/short
//!    ratio is a *scaling-flatness* probe: per-message cost that grows
//!    with component state (the classic mistake is an O(state) hash or
//!    scan on the delivery path) drives it toward zero, while honest
//!    O(1) per-message work keeps it near 1 regardless of host speed.
//! 2. **TCP loopback** — envelopes/sec over a real socket, one-envelope
//!    batch frames vs 64-envelope batch frames (`write_batch`/`read_batch`,
//!    one `write_all` per frame either way).
//! 3. **WAL appends** — records/sec on the `Strict` lane (one `sync_all`
//!    per record) vs the `Buffered { flush_window: 5ms }` lane (one per
//!    commit window).
//! 4. **Checkpoint bytes** — serialized size of a full `CkptMap` snapshot
//!    vs the incremental delta after touching a few keys.
//!
//! `--quick` runs reduced iteration counts, leaves the committed baseline
//! untouched, and *gates*: the run's own
//! batching and group-commit speedups must each be ≥ 2x, and — when a
//! committed `BENCH_throughput.json` exists — the current speedups must be
//! at least half the committed ones. Speedup *ratios* are compared, never
//! absolute rates: CI hardware varies wildly, but "batching divided by
//! not-batching on the same box" does not.

// Measurement harness (tart-lint tier: Exempt): its purpose is wall-clock timing.
#![allow(clippy::disallowed_methods)]

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use tart_bench::{json_f64, print_table, quick_mode};
use tart_engine::net::{read_batch, write_batch};
use tart_engine::{
    Cluster, ClusterConfig, DurabilityPolicy, Envelope, Placement, Wal, BUFFERED_MAX_RECORDS,
};
use tart_estimator::EstimatorSpec;
use tart_model::reference::{self, fan_in_app};
use tart_model::{BlockId, CheckpointMode, CkptMap, Value};
use tart_vtime::{EngineId, VirtualTime, WireId};

/// Envelopes per batch frame on the TCP path (mirrors the writer thread's
/// drain cap order of magnitude; 64 is a typical busy-link fill).
const BATCH: usize = 64;
/// Group-commit lane used for the WAL comparison.
const GROUP: DurabilityPolicy = DurabilityPolicy::Buffered {
    flush_window: Duration::from_millis(5),
};

fn main() {
    let quick = quick_mode();
    let (pipeline_msgs, tcp_envelopes, wal_records) = if quick {
        (200, 20_000, 96)
    } else {
        (2_000, 200_000, 512)
    };

    let local = local_pipeline(pipeline_msgs);
    let sustained_msgs = pipeline_msgs * 10;
    let sustained = local_pipeline(sustained_msgs);
    let pipeline_scaling = sustained / local;
    let (unbatched, batched) = tcp_loopback(tcp_envelopes);
    let (wal_always, wal_group) = wal_appends(wal_records);
    let (full_bytes, delta_bytes) = checkpoint_bytes();

    let tcp_speedup = batched / unbatched;
    let wal_speedup = wal_group / wal_always;
    let ckpt_ratio = full_bytes as f64 / delta_bytes as f64;

    print_table(
        "Hot-path throughput baseline",
        &["measurement", "value"],
        &[
            vec!["local pipeline msgs/sec".into(), format!("{local:.0}")],
            vec![
                "local pipeline sustained (10x) msgs/sec".into(),
                format!("{sustained:.0}"),
            ],
            vec![
                "pipeline scaling (sustained/short)".into(),
                format!("{pipeline_scaling:.2}"),
            ],
            vec![
                "tcp 1-envelope frames env/sec".into(),
                format!("{unbatched:.0}"),
            ],
            vec![
                "tcp 64-envelope frames env/sec".into(),
                format!("{batched:.0}"),
            ],
            vec!["tcp batching speedup".into(), format!("{tcp_speedup:.2}x")],
            vec![
                "wal Strict lane appends/sec".into(),
                format!("{wal_always:.0}"),
            ],
            vec![
                "wal Buffered lane appends/sec".into(),
                format!("{wal_group:.0}"),
            ],
            vec![
                "wal group-commit speedup".into(),
                format!("{wal_speedup:.2}x"),
            ],
            vec!["full checkpoint bytes".into(), format!("{full_bytes}")],
            vec!["delta checkpoint bytes".into(), format!("{delta_bytes}")],
            vec!["full/delta ratio".into(), format!("{ckpt_ratio:.1}x")],
        ],
    );

    // Baseline comparison BEFORE overwriting the file. Ratios only.
    let baseline = std::fs::read_to_string("BENCH_throughput.json").ok();
    let mut regressions = Vec::new();
    if let Some(base) = &baseline {
        for (key, now) in [
            ("tcp_speedup", tcp_speedup),
            ("wal_speedup", wal_speedup),
            ("pipeline_scaling", pipeline_scaling),
        ] {
            if let Some(was) = json_f64(base, key) {
                if now < was / 2.0 {
                    regressions.push(format!("{key}: {now:.2}x vs committed {was:.2}x"));
                }
            }
        }
    } else {
        eprintln!("no committed BENCH_throughput.json — first run, nothing to compare");
    }

    // Quick mode gates against the committed baseline but never refreshes
    // it — only a full run's numbers are worth committing.
    if !quick {
        let json = format!(
            "{{\n  \"bench\": \"throughput\",\n  \"mode\": \"full\",\n  \
             \"local_pipeline_msgs_per_sec\": {local:.0},\n  \
             \"local_pipeline_sustained_msgs_per_sec\": {sustained:.0},\n  \
             \"local_pipeline_sustained_msgs\": {sustained_msgs},\n  \
             \"pipeline_scaling\": {pipeline_scaling:.2},\n  \
             \"tcp_unbatched_env_per_sec\": {unbatched:.0},\n  \
             \"tcp_batched_env_per_sec\": {batched:.0},\n  \
             \"tcp_batch_size\": {BATCH},\n  \"tcp_speedup\": {tcp_speedup:.2},\n  \
             \"wal_always_appends_per_sec\": {wal_always:.0},\n  \
             \"wal_group_commit_appends_per_sec\": {wal_group:.0},\n  \
             \"wal_group_max_records\": {BUFFERED_MAX_RECORDS},\n  \"wal_group_max_delay_ms\": 5,\n  \
             \"wal_speedup\": {wal_speedup:.2},\n  \
             \"checkpoint_full_bytes\": {full_bytes},\n  \
             \"checkpoint_delta_bytes\": {delta_bytes},\n  \
             \"checkpoint_full_over_delta\": {ckpt_ratio:.1}\n}}\n",
        );
        std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
        println!("wrote BENCH_throughput.json");
    }

    if quick {
        tart_bench::write_quick_ratios(
            "throughput",
            &[
                ("tcp_speedup", tcp_speedup),
                ("wal_speedup", wal_speedup),
                ("pipeline_scaling", pipeline_scaling),
            ],
        );
        assert!(
            tcp_speedup >= 2.0,
            "batched TCP must be ≥2x over per-envelope frames, got {tcp_speedup:.2}x"
        );
        assert!(
            wal_speedup >= 2.0,
            "group commit must be ≥2x over per-record fsync, got {wal_speedup:.2}x"
        );
        assert!(
            ckpt_ratio >= 2.0,
            "a sparse delta must be far smaller than a full snapshot, got {ckpt_ratio:.1}x"
        );
        assert!(
            pipeline_scaling >= 0.5,
            "pipeline throughput must stay flat at 10x the message count \
             (superlinear per-message cost?), got scaling {pipeline_scaling:.2}"
        );
        assert!(
            regressions.is_empty(),
            ">2x regression vs committed baseline: {regressions:?}"
        );
        println!("quick gates passed (speedups ≥2x, flat scaling, no >2x baseline regression)");
    }
}

/// Messages/sec through a real two-engine cluster on the in-process router.
fn local_pipeline(messages: usize) -> f64 {
    let spec = fan_in_app(2).expect("valid app");
    let mut config = ClusterConfig::logical_time().with_checkpoint_every(64);
    for c in spec.components() {
        let est = if c.name().starts_with("Sender") {
            EstimatorSpec::per_iteration(reference::SENDER_LOOP_BLOCK, 61_000)
        } else {
            EstimatorSpec::per_iteration(BlockId(0), 400_000)
        };
        config = config.with_estimator(c.id(), est);
    }
    config.idle_poll_micros = 50;
    let mut placement = Placement::new();
    for c in spec.components() {
        let engine = if c.name() == "Merger" { 1 } else { 0 };
        placement.assign(c.id(), EngineId::new(engine));
    }
    let cluster = Cluster::deploy(spec, placement, config).expect("deploys");
    let clients = [
        cluster.injector("client1").expect("injector"),
        cluster.injector("client2").expect("injector"),
    ];
    let start = Instant::now();
    for i in 0..messages {
        clients[i % 2].send(Value::from(format!("alpha beta gamma {i}")));
    }
    cluster.finish_inputs();
    // Hold a hub handle so the report can be written OUTSIDE the timed
    // window (the file write would otherwise count against throughput).
    let obs = std::sync::Arc::clone(cluster.obs());
    let outs = cluster.shutdown();
    let secs = start.elapsed().as_secs_f64();
    assert!(!outs.is_empty(), "pipeline produced outputs");
    match tart_engine::write_report(&obs.snapshot()) {
        Ok(path) => eprintln!("obs report written to {}", path.display()),
        Err(e) => eprintln!("obs report not written: {e}"),
    }
    messages as f64 / secs
}

/// A representative data envelope (string payload, mid-sized).
fn sample_envelope(i: usize) -> Envelope {
    Envelope::Data {
        wire: WireId::new(7),
        vt: VirtualTime::from_ticks(i as u64 + 1),
        prev_vt: VirtualTime::from_ticks(i as u64),
        payload: Value::from("the quick brown fox jumps over the lazy dog"),
    }
}

/// Envelopes/sec over a loopback socket: one-envelope batch frames vs
/// [`BATCH`]-envelope batch frames. The sink thread counts what it decodes;
/// the measurement covers connect → last byte acknowledged by the reader.
fn tcp_loopback(envelopes: usize) -> (f64, f64) {
    // Best of three: loopback throughput is at the mercy of the scheduler
    // (one bad core migration can triple a run), and the baseline gate
    // compares ratios of these numbers.
    let best = |per_frame: usize| -> f64 {
        (0..3)
            .map(|_| tcp_run(envelopes, per_frame))
            .fold(0.0f64, f64::max)
    };
    (best(1), best(BATCH))
}

/// Runs one TCP producer/sink pair sending `per_frame` envelopes per batch
/// frame; returns envelopes/sec.
fn tcp_run(envelopes: usize, per_frame: usize) -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("addr");
    let sink = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.set_nodelay(true).ok();
        let mut seen = 0usize;
        while let Ok(Some(batch)) = read_batch(&mut conn) {
            seen += batch.len();
        }
        seen
    });
    let mut stream = TcpStream::connect(addr).expect("connect loopback");
    stream.set_nodelay(true).expect("nodelay");
    let start = Instant::now();
    let target = EngineId::new(1);
    let mut scratch = BytesMut::with_capacity(8192);
    let mut batch = Vec::with_capacity(per_frame);
    let mut sent = 0;
    while sent < envelopes {
        batch.clear();
        while batch.len() < per_frame && sent + batch.len() < envelopes {
            batch.push((target, sample_envelope(sent + batch.len())));
        }
        sent += batch.len();
        write_batch(&mut stream, &batch, &mut scratch).expect("batch write");
    }
    stream.flush().expect("flush");
    drop(stream);
    let seen = sink.join().expect("sink thread");
    let secs = start.elapsed().as_secs_f64();
    assert!(
        seen * 10 >= envelopes * 9,
        "sink decoded {seen}/{envelopes} envelopes"
    );
    seen as f64 / secs
}

/// Appends/sec on the per-record-fsync lane vs the group-commit lane,
/// same record size.
fn wal_appends(records: usize) -> (f64, f64) {
    let body = [0x5au8; 64];
    let run = |lane: DurabilityPolicy, tag: &str| -> f64 {
        let dir = std::env::temp_dir().join(format!("tart-bench-wal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut wal = Wal::create(&dir, u64::MAX).expect("create wal");
        let start = Instant::now();
        for _ in 0..records {
            wal.append_lane(&body, lane).expect("append");
        }
        wal.sync().expect("final sync");
        let secs = start.elapsed().as_secs_f64();
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
        records as f64 / secs
    };
    (run(DurabilityPolicy::Strict, "always"), run(GROUP, "group"))
}

/// Serialized bytes of a full `CkptMap` snapshot vs the delta after
/// touching a handful of keys — the §II.F.2 incremental-checkpoint saving.
fn checkpoint_bytes() -> (usize, usize) {
    let mut map: CkptMap<String, u64> = CkptMap::new();
    for i in 0..1024u64 {
        map.insert(format!("key-{i:04}"), i);
    }
    let full = map
        .take_chunk(CheckpointMode::Full)
        .expect("full chunk")
        .bytes()
        .len();
    for i in 0..16u64 {
        map.insert(format!("key-{:04}", i * 61), i + 1_000_000);
    }
    let delta = map
        .take_chunk(CheckpointMode::Incremental)
        .expect("delta chunk")
        .bytes()
        .len();
    (full, delta)
}
