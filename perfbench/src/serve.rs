//! The serving stage of every workload: the first trained model is
//! restored from its checkpoint into the micro-batching server, driven
//! by one load-generator thread. On `serve-d2-write` one graph update
//! follows every four reads of the same schedule; the other workloads
//! only read.
//!
//! The untraced stage spends `cap_share` of `--seconds` in a closed loop
//! with `max_batch` reads in flight, cut into one-second windows that
//! each start a fresh server (over one warmed engine on the read-only
//! workloads, over a freshly restored one per window on the write
//! workload); `capacity_ops_s` is the median window. The traced stage adds open
//! loops at the workload's two frozen rates `lo` and `hi` (read latency
//! from due time), direct engine timings (the patch path included, on
//! every workload) and the server's and engine's counters.
//!
//! Gates: before timing, served rows equal full-graph `evaluate` rows
//! bitwise; on the read-only workloads every reply is checked against
//! them too. After each write window or phase the patched adjacency
//! equals a from-scratch rebuild (by fingerprint, checked once the
//! measurement is over) and served rows equal an eval of the rebuilt
//! graph.

use crate::load::{closed_loop, open_loop, Op, Outcome};
use crate::report::{peak_rss_mb, time_ms, Ops, Report, Samples};
use crate::workload::Workload;
use skipnode_graph::{Graph, GraphUpdate, UpdateStream};
use skipnode_nn::{evaluate, ModelCheckpoint, Strategy};
use skipnode_serve::{
    EngineStats, InferenceServer, ServeEngine, ServeMode, ServerConfig, ServerStats,
};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::{kstats, Matrix, SplitRng};
use std::time::{Duration, Instant};

const MAX_BATCH: usize = 64;
const WINDOW: Duration = Duration::from_micros(200);
/// Share of generated updates that add a node (the rest add an edge).
const NODE_RATE: f64 = 0.1;
/// Seeded probe queries for the identity gates.
const PROBES: usize = 64;
/// Updates applied directly to an engine for `serve.update_us`, one
/// after every four reads as on `serve-d2-write`.
const UPDATE_PROBES: usize = 500;
/// Shares of `--seconds` spent in the traced stage's closed loop and in
/// each of its open loops.
const CAP_SHARE: f64 = 0.2;
const OPEN_SHARE: f64 = 0.4;
/// Phases are cut into windows and a metric is the median of its
/// per-window values, so one stall on a shared machine moves one window.
const CAP_WINDOW: Duration = Duration::from_secs(1);
/// Enough reads for an exact per-window p99 with ten samples beyond it.
const READS_PER_WINDOW: f64 = 1000.0;
const MAX_WINDOWS: usize = 30;

/// The checkpoint's serving engine on `graph`, as set-up builds it.
pub fn restore(ckpt: &ModelCheckpoint, graph: &Graph) -> ServeEngine {
    ServeEngine::from_checkpoint(ckpt, graph, ServeMode::F32).expect("engine restores")
}

/// Full-graph eval of the checkpointed model on `graph`.
fn full_eval(ckpt: &ModelCheckpoint, graph: &Graph) -> Matrix {
    let model = ckpt.restore().expect("checkpoint restores");
    let adj = graph.gcn_adjacency();
    evaluate(
        model.as_ref(),
        graph,
        &adj,
        &Strategy::None,
        &mut SplitRng::new(1),
    )
    .0
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rows `served[i]` equal `full[queries[i]]` bitwise.
fn rows_match(served: &Matrix, full: &Matrix, queries: &[usize]) -> bool {
    queries
        .iter()
        .enumerate()
        .all(|(i, &q)| same_bits(served.row(i), full.row(q)))
}

/// A restored engine with its first-hop cache filled by one all-node
/// batch, as a long-running server's would be.
fn warm_engine(ckpt: &ModelCheckpoint, graph: &Graph) -> ServeEngine {
    let mut engine = restore(ckpt, graph);
    let all: Vec<usize> = (0..graph.num_nodes()).collect();
    engine.serve_batch(&all);
    engine
}

/// `count` seeded updates from [`UpdateStream`] against the base graph
/// (none on a read-only workload).
fn updates(w: &Workload, graph: &Graph, seed: u64, count: usize) -> Vec<GraphUpdate> {
    if w.write_every == 0 {
        return Vec::new();
    }
    update_stream(graph, seed ^ 0x7570_6461).take_updates(count / w.write_every + 1)
}

fn update_stream(graph: &Graph, seed: u64) -> UpdateStream {
    UpdateStream::new(&graph.degrees(), NODE_RATE, graph.feature_dim(), seed)
}

/// `count` ops: uniform reads over the base graph's nodes drawn from
/// `seed`, with every `write_every(w)`-th op the next of `updates`.
fn schedule(w: &Workload, n: usize, seed: u64, count: usize, updates: &[GraphUpdate]) -> Vec<Op> {
    let mut rng = SplitRng::new(seed);
    let mut writes = updates.iter().cloned();
    let every = w.write_every;
    (0..count)
        .map(|i| match every {
            k if k > 0 && i % k == k - 1 => Op::Write(writes.next().expect("enough updates")),
            _ => Op::Read(rng.below(n)),
        })
        .collect()
}

/// The base graph with `writes` applied, rebuilt from scratch.
fn rebuild(graph: &Graph, writes: &[GraphUpdate]) -> Graph {
    let mut edges = graph.edges().to_vec();
    let mut feat: Vec<f32> = graph.features().as_slice().to_vec();
    let mut n = graph.num_nodes();
    for update in writes {
        match update {
            GraphUpdate::AddEdge(u, v) => edges.push((*u, *v)),
            GraphUpdate::AddNode(f) => {
                feat.extend_from_slice(f);
                n += 1;
            }
        }
    }
    Graph::new(
        n,
        edges,
        Matrix::from_vec(n, graph.feature_dim(), feat),
        vec![0; n],
        graph.num_classes(),
    )
}

/// FNV-1a over a CSR matrix's shape, row lengths, columns and value bits.
fn fingerprint(m: &CsrMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(m.rows() as u64);
    for r in 0..m.rows() {
        let (cols, vals) = m.row(r);
        eat(cols.len() as u64);
        for (&c, &v) in cols.iter().zip(vals) {
            eat(c as u64);
            eat(v.to_bits() as u64);
        }
    }
    h
}

/// What a write phase left behind, for the rebuild gate: how many of its
/// update sequence it applied, its patched adjacency's fingerprint, and
/// seeded probe rows (the newest node included) served after the phase.
/// Checked once the load phase is over, so the rebuilds stay out of its
/// windows.
struct WriteCheck {
    writes: usize,
    adjacency: Option<u64>,
    probe: Vec<usize>,
    rows: Matrix,
}

fn write_check(outcome: &mut Outcome, probe_seed: u64) -> WriteCheck {
    let writes = outcome.writes.attempted as usize;
    let Some((engine, _, _)) = outcome.server.as_mut() else {
        return WriteCheck {
            writes,
            adjacency: None,
            probe: Vec::new(),
            rows: Matrix::zeros(0, 0),
        };
    };
    let n2 = engine.num_nodes();
    let mut rng = SplitRng::new(probe_seed);
    let mut probe: Vec<usize> = (0..PROBES).map(|_| rng.below(n2)).collect();
    probe.push(n2 - 1);
    WriteCheck {
        writes,
        adjacency: Some(fingerprint(&engine.snapshot_adjacency())),
        rows: engine.serve_batch(&probe),
        probe,
    }
}

/// The rebuild gate: the patched adjacency equals a from-scratch
/// `gcn_adjacency` of the graph with the same writes (by fingerprint),
/// and the probe rows equal an eval of the rebuilt graph bitwise.
fn verify_writes(
    check: &WriteCheck,
    ckpt: &ModelCheckpoint,
    graph: &Graph,
    sequence: &[GraphUpdate],
) -> Option<String> {
    let Some(adjacency) = check.adjacency else {
        return Some("worker panicked".into());
    };
    let rebuilt = rebuild(graph, &sequence[..check.writes]);
    let n2 = rebuilt.num_nodes();
    if fingerprint(&rebuilt.gcn_adjacency()) != adjacency {
        return Some(format!("patched adjacency != rebuild at {n2} nodes"));
    }
    if !rows_match(&check.rows, &full_eval(ckpt, &rebuilt), &check.probe) {
        return Some(format!("served rows != rebuilt-graph eval at {n2} nodes"));
    }
    None
}

/// What every live phase of one serve run shares.
struct Served<'a> {
    w: &'a Workload,
    ckpt: &'a ModelCheckpoint,
    graph: &'a Graph,
    /// Full-graph eval of the base graph.
    full: &'a Matrix,
}

/// The closed-loop phase, summed over its windows.
struct Capacity {
    /// Throughput of each window, in ops/s.
    rates: Samples,
    server: ServerStats,
    engine: EngineStats,
}

impl Served<'_> {
    /// A server over a freshly restored, warmed engine.
    fn warm_server(&self) -> InferenceServer {
        server(warm_engine(self.ckpt, self.graph))
    }

    /// Read-only replies must equal the full forward bitwise; with writes
    /// the rebuild gate checks the patched state instead.
    fn reply_check(&self) -> impl Fn(usize, &[f32]) -> bool + Copy + '_ {
        let read_only = self.w.write_every == 0;
        move |node: usize, row: &[f32]| !read_only || same_bits(row, self.full.row(node))
    }

    /// The closed-loop phase: windows of [`CAP_WINDOW`], each on a fresh
    /// warmed server with its own seeded schedule, `max_batch` reads in
    /// flight. Fresh servers keep a write workload's graph from growing
    /// across the whole phase.
    fn capacity(&self, report: &mut Report, tag: &str, seed: u64, length: Duration) -> Capacity {
        let (w, ckpt, graph) = (self.w, self.ckpt, self.graph);
        let windows = ((length.as_secs_f64() / CAP_WINDOW.as_secs_f64()) as usize).max(1);
        let mut cap = Capacity {
            rates: Samples::default(),
            server: ServerStats::default(),
            engine: EngineStats::default(),
        };
        let (mut reads, mut writes) = (Ops::default(), Ops::default());
        let mut checks = Vec::new();
        // Every window replays one update sequence (each starts from the base
        // graph) under its own read stream.
        let count = (w.max_ops_per_s * CAP_WINDOW.as_secs_f64()) as usize;
        let sequence = updates(w, graph, seed, count);
        // Reads change nothing in an engine but its caches, so a read-only
        // workload hands one warmed engine from window to window.
        let mut kept = None;
        for i in 0..windows {
            let window_seed = seed ^ 0x6361_7000 ^ ((i as u64) << 40);
            let ops = schedule(w, graph.num_nodes(), window_seed, count, &sequence);
            let engine = kept.take().unwrap_or_else(|| warm_engine(ckpt, graph));
            let base = engine.stats();
            let mut o = closed_loop(
                server(engine),
                &ops,
                MAX_BATCH,
                CAP_WINDOW,
                self.reply_check(),
            );
            cap.rates.push(o.ops_per_s);
            reads.add(o.reads);
            writes.add(o.writes);
            if let Some((_, s, e)) = &o.server {
                add_stats(&mut cap.server, &mut cap.engine, s, &since(e, &base));
            }
            if w.write_every > 0 {
                checks.push(write_check(&mut o, window_seed));
            } else {
                kept = o.server.take().map(|(e, _, _)| e);
            }
            if o.server.is_none() && kept.is_none() {
                // The worker died; later windows would only stall the same way.
                break;
            }
        }
        report.ops(&format!("reads.{tag}"), reads);
        if w.write_every > 0 {
            report.ops(&format!("writes.{tag}"), writes);
            let failures: Vec<String> = checks
                .iter()
                .filter_map(|c| verify_writes(c, ckpt, graph, &sequence))
                .collect();
            report.gate(
                &format!("patched_equals_rebuild.{tag}"),
                failures.is_empty(),
                &format!("{} windows, failures: {failures:?}", checks.len()),
            );
        }
        cap
    }

    /// An open-loop phase at a frozen `rate`: Poisson arrivals (independent
    /// users) drawn from `seed` for `length`, latencies kept per window of
    /// about [`READS_PER_WINDOW`] reads.
    fn open(
        &self,
        report: &mut Report,
        tag: &str,
        seed: u64,
        rate: f64,
        length: Duration,
    ) -> Outcome {
        let (w, ckpt, graph) = (self.w, self.ckpt, self.graph);
        let mut rng = SplitRng::new(seed ^ 0x6172_7269);
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= length.as_secs_f64() {
                break;
            }
            arrivals.push(Duration::from_secs_f64(t));
        }
        let writes = updates(w, graph, seed, arrivals.len());
        let ops = schedule(w, graph.num_nodes(), seed, arrivals.len(), &writes);
        let reads = rate * length.as_secs_f64() * w.read_share();
        let windows = ((reads / READS_PER_WINDOW) as usize).clamp(1, MAX_WINDOWS);
        let mut outcome = open_loop(
            self.warm_server(),
            &ops,
            &arrivals,
            length,
            windows,
            self.reply_check(),
        );
        report.ops(&format!("reads.{tag}"), outcome.reads);
        if w.write_every > 0 {
            report.ops(&format!("writes.{tag}"), outcome.writes);
            let check = write_check(&mut outcome, seed ^ 0x7072);
            let failure = verify_writes(&check, ckpt, graph, &writes);
            report.gate(
                &format!("patched_equals_rebuild.{tag}"),
                failure.is_none(),
                &failure.unwrap_or_default(),
            );
        }
        outcome
    }
}

fn server(engine: ServeEngine) -> InferenceServer {
    InferenceServer::start(
        engine,
        ServerConfig {
            window: WINDOW,
            max_batch: MAX_BATCH,
        },
    )
}

/// The engine counters gathered since `base`.
fn since(e: &EngineStats, base: &EngineStats) -> EngineStats {
    EngineStats {
        queries: e.queries - base.queries,
        batches: e.batches - base.batches,
        updates: e.updates - base.updates,
        invalidated_rows: e.invalidated_rows - base.invalidated_rows,
        first_hop_hits: e.first_hop_hits - base.first_hop_hits,
        first_hop_misses: e.first_hop_misses - base.first_hop_misses,
    }
}

fn add_stats(server: &mut ServerStats, engine: &mut EngineStats, s: &ServerStats, e: &EngineStats) {
    server.batches += s.batches;
    server.requests += s.requests;
    server.capped_batches += s.capped_batches;
    engine.updates += e.updates;
    engine.invalidated_rows += e.invalidated_rows;
    engine.first_hop_hits += e.first_hop_hits;
    engine.first_hop_misses += e.first_hop_misses;
}

/// A frozen rate's backlog grows when more than two full batches are
/// still outstanding as the schedule ends, and more than at its midpoint.
fn backlog_grows(o: &Outcome) -> bool {
    o.backlog_end > 2 * MAX_BATCH && o.backlog_end > o.backlog_mid
}

/// The serving stage. Untraced it reports `capacity_ops_s` and
/// `peak_rss_mb`; traced, the serving per-layer metrics.
pub fn run(
    w: &Workload,
    ckpt: &ModelCheckpoint,
    graph: &Graph,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) {
    // Gates before timing: batched, sequential and all-node serving equal
    // the full-graph eval bitwise.
    let full = full_eval(ckpt, graph);
    let mut rng = SplitRng::new(seed ^ 0x7072_6f62);
    let probe: Vec<usize> = (0..PROBES).map(|_| rng.below(graph.num_nodes())).collect();
    let mut engine = restore(ckpt, graph);
    let batched = rows_match(&engine.serve_batch(&probe), &full, &probe);
    let eights = probe
        .chunks(8)
        .all(|c| rows_match(&engine.serve_batch(c), &full, c));
    let ones = probe[..8]
        .iter()
        .all(|&q| same_bits(&engine.serve_one(q), full.row(q)));
    let all: Vec<usize> = (0..graph.num_nodes()).collect();
    let every = rows_match(&engine.serve_batch(&all), &full, &all);
    drop(engine);
    report.gate(
        "served_equals_eval",
        batched && eights && ones && every,
        &format!(
            "{PROBES} seeded probes as b64 {batched}, b8 {eights}, b1 {ones}; all nodes {every}"
        ),
    );
    if !report.gates_passed() {
        return;
    }

    let served = Served {
        w,
        ckpt,
        graph,
        full: &full,
    };
    if !trace {
        // The peak so far covers set-up, training, evaluation and one fully
        // exercised serving engine. The load phase is left out: which of
        // its threads' freed memory the allocator reuses varies from run
        // to run and moved this figure by up to 10% between seeds.
        let rss = peak_rss_mb();
        let length = Duration::from_secs_f64(seconds * w.cap_share);
        let cap = served.capacity(report, "cap", seed, length);
        report.value(
            "peak_rss_mb",
            rss,
            "MiB",
            "VmHWM after the serving gates, before the load phase",
        );
        report.pct("capacity_ops_s", &cap.rates, 50.0, "ops/s");
        return;
    }

    // Traced run. First an untraced capacity phase, for the overhead.
    let cap_time = Duration::from_secs_f64(seconds * CAP_SHARE);
    let untraced_cap = served.capacity(report, "cap_untraced", seed, cap_time);
    kstats::set_enabled(true);

    let mut bytes = Vec::new();
    ckpt.write(&mut bytes).expect("checkpoint serializes");
    let read_ms = time_ms(20, || {
        ModelCheckpoint::read(bytes.as_slice()).expect("reads")
    });
    let restore_ms = time_ms(10, || restore(ckpt, graph));
    let full_eval_ms = time_ms(20, || full_eval(ckpt, graph));

    let n = graph.num_nodes();
    let mut engine = warm_engine(ckpt, graph);
    let mut batch_ms = Vec::new();
    let mut rows_per_query = Vec::new();
    let mut qrng = SplitRng::new(seed ^ 0x6261_7463);
    for (b, reps) in [(1, 200), (8, 100), (MAX_BATCH, 40)] {
        let sets: Vec<Vec<usize>> = (0..reps)
            .map(|_| (0..b).map(|_| qrng.below(n)).collect())
            .collect();
        let before = kstats::snapshot();
        let mut it = sets.iter();
        batch_ms.push((
            b,
            time_ms(reps, || engine.serve_batch(it.next().expect("a set"))),
        ));
        let mapped = |s: &[kstats::KernelStat]| {
            s.iter()
                .find(|k| k.name == "spmm_mapped")
                .map_or(0, |k| k.work)
        };
        let rows = mapped(&kstats::snapshot()) - mapped(&before);
        rows_per_query.push((b, rows as f64 / (reps * b) as f64));
    }

    // The patch path, timed directly on a warmed engine on every
    // workload: each update follows four reads, served in batches of 8.
    let mut update_us = Samples::default();
    let mut engine = warm_engine(ckpt, graph);
    let mut urng = SplitRng::new(seed ^ 0x7570_7573);
    let mut reads = Vec::new();
    for u in update_stream(graph, seed ^ 0x7570_7573).take_updates(UPDATE_PROBES) {
        reads.extend((0..4).map(|_| urng.below(n)));
        if reads.len() == 8 {
            engine.serve_batch(&reads);
            reads.clear();
        }
        let t = Instant::now();
        engine.apply_update(&u);
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let patched = engine.stats();
    drop(engine);

    let (lo_rate, hi_rate) = w.rates;
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let cap = served.capacity(report, "cap", seed, cap_time);
    let lo = served.open(report, "lo", seed ^ 0x6c6f, lo_rate, open);
    let hi = served.open(report, "hi", seed ^ 0x6869, hi_rate, open);
    kstats::set_enabled(false);

    report.pct("nn.checkpoint_read_ms", &read_ms, 50.0, "ms");
    report.pct("serve.restore_ms", &restore_ms, 50.0, "ms");
    for (b, s) in &batch_ms {
        report.pct(&format!("serve.batch_ms.b{b}"), s, 50.0, "ms");
    }
    for (b, r) in &rows_per_query {
        if *b != 8 {
            report.value(
                &format!("serve.rows_per_query.b{b}"),
                *r,
                "count",
                "spmm_mapped rows / queries (kstats)",
            );
        }
    }
    report.pct("serve.full_eval_ms", &full_eval_ms, 50.0, "ms");
    report.pct("serve.update_us", &update_us, 50.0, "us");
    report.pct("serve.update_us.p90", &update_us, 90.0, "us");
    report.value(
        "serve.invalidated_per_update",
        patched.invalidated_rows as f64 / patched.updates.max(1) as f64,
        "count",
        "EngineStats of the directly patched engine",
    );

    let (mut server, mut engine) = (cap.server, cap.engine);
    for o in [&lo, &hi] {
        if let Some((_, s, e)) = &o.server {
            add_stats(&mut server, &mut engine, s, e);
        }
    }
    report.value(
        "serve.first_hop_hit_rate",
        engine.first_hop_hits as f64
            / (engine.first_hop_hits + engine.first_hop_misses).max(1) as f64,
        "share",
        "EngineStats over the live phases",
    );
    for (tag, o) in [("lo", &lo), ("hi", &hi)] {
        if let Some((_, s, _)) = &o.server {
            report.value(
                &format!("serve.server.mean_batch.{tag}"),
                s.mean_batch(),
                "count",
                "ServerStats",
            );
        }
    }
    report.value(
        "serve.server.mean_batch.cap",
        cap.server.mean_batch(),
        "count",
        "ServerStats",
    );
    report.value(
        "serve.server.capped_share.cap",
        cap.server.capped_batches as f64 / cap.server.batches.max(1) as f64,
        "share",
        "ServerStats: batches that hit max_batch",
    );
    for (tag, rate, o) in [("lo", lo_rate, &lo), ("hi", hi_rate, &hi)] {
        if backlog_grows(o) {
            println!(
                "rate {tag} ({rate} ops/s): backlog grew to {} reads; its latency misses the limit",
                o.backlog_end
            );
        }
        report.windowed_pct(&format!("lat_p50_ms.{tag}"), &o.latency_ms, 50.0, "ms");
        report.windowed_pct(&format!("lat_p99_ms.{tag}"), &o.latency_ms, 99.0, "ms");
    }
    for (tag, o) in [("lo", &lo), ("hi", &hi)] {
        report.pct(&format!("bench.gen_late_ms.{tag}"), &o.late_ms, 99.0, "ms");
        report.pct(
            &format!("bench.gen_late_ms.{tag}.max"),
            &o.late_ms,
            100.0,
            "ms",
        );
        report.value(
            &format!("bench.backlog.{tag}"),
            o.backlog_end as f64,
            "count",
            &format!(
                "reads outstanding as the schedule ended (midpoint {}){}",
                o.backlog_mid,
                if backlog_grows(o) { "; GROWING" } else { "" }
            ),
        );
    }
    let traced = cap.rates.median();
    let untraced = untraced_cap.rates.median();
    report.value(
        "bench.trace_overhead.capacity_ops_s",
        traced - untraced,
        "ops/s",
        &format!("traced {traced:.1} minus untraced {untraced:.1}"),
    );
}
