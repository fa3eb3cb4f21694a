//! The training stage of every workload: the paper's deep-GCN training
//! path (`autograd`, `core`, `tensor`, `nn`), then full-graph evaluation.
//!
//! A GCN of the workload's depth (hidden 64, dropout 0.5) with SkipNode-U
//! at the depth-tuned rate is trained on the semi-supervised split for a
//! fixed epoch budget with early stopping off and an evaluation every 10
//! epochs; each trained model is then evaluated on the full graph over
//! and over. The graph is fixed; the seed draws each call's split,
//! initial weights, dropout and skip masks.
//!
//! The untraced stage times `train_calls` `train_node_classifier` calls,
//! each followed by `evals_per_call` `evaluate` calls of its model: a
//! fixed amount of work, whatever `--seconds` says. The traced stage
//! replays the trainer's epoch loop from the library's public per-epoch
//! calls (`begin_epoch`, `replay_forward`, `softmax_cross_entropy`,
//! `backward`, `Adam::step`), timing each one, and gates on the replay
//! reaching exactly the trainer's test accuracy.

use crate::report::{time_ms, Ops, Report, Samples};
use crate::workload::{Workload, HIDDEN};
use skipnode_autograd::softmax_cross_entropy;
use skipnode_graph::{semi_supervised_split, Graph, Split};
use skipnode_nn::{
    accuracy, compile_train_program, evaluate, train_node_classifier, Adam, Model, StrategySampler,
};
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::{kstats, workspace, Matrix, SplitRng};
use std::sync::Arc;
use std::time::Instant;

/// Timed graph generations and adjacency builds in the traced stage.
const LOAD_REPS: usize = 21;
/// Timed `compile_train_program` calls in the traced stage.
const COMPILE_REPS: usize = 5;
/// Full-graph evaluations of the traced stage's model, so `eval_ms.p90`
/// has ten samples beyond it.
const TRACE_EVALS: usize = 110;

/// The seed of training call `call` of a run; call 0 uses the run's seed.
fn call_seed(seed: u64, call: u64) -> u64 {
    seed ^ (call << 32)
}

/// A fresh model, split and training RNG, all drawn from `seed`.
fn fresh(w: &Workload, graph: &Graph, seed: u64) -> (Box<dyn Model>, Split, SplitRng) {
    let mut rng = SplitRng::new(seed);
    let split = semi_supervised_split(graph, &mut rng);
    let model = w.spec(graph).build(&mut rng).expect("gcn builds");
    (model, split, rng)
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The untraced stage: `train_s`, `test_acc` and `eval_ms`, counters
/// off. Returns the first call's trained model, the one that is served.
pub fn measure(
    w: &Workload,
    graph: &Graph,
    adj: &Arc<CsrMatrix>,
    seed: u64,
    report: &mut Report,
) -> Box<dyn Model> {
    let strategy = w.strategy();
    let cfg = w.train_config();

    let mut train_s = Samples::default();
    let mut accs: Vec<f64> = Vec::new();
    let mut eval_ms = Samples::default();
    let mut identical = true;
    let mut served = None;
    for call in 0..w.train_calls {
        let (mut model, split, mut rng) = fresh(w, graph, call_seed(seed, call));
        let t = Instant::now();
        let result =
            train_node_classifier(model.as_mut(), graph, &split, &strategy, &cfg, &mut rng);
        train_s.push(t.elapsed().as_secs_f64());
        accs.push(result.test_accuracy);

        let mut reference: Option<Matrix> = None;
        for _ in 0..w.evals_per_call {
            let mut rng = SplitRng::new(seed);
            let t = Instant::now();
            let (logits, _) = evaluate(model.as_ref(), graph, adj, &strategy, &mut rng);
            eval_ms.push_ms(t.elapsed());
            match &reference {
                None => reference = Some(logits),
                Some(r) => identical &= same_bits(r, &logits),
            }
        }
        served.get_or_insert(model);
    }
    report.ops(
        "training runs",
        Ops {
            attempted: w.train_calls,
            failed: 0,
        },
    );
    report.ops(
        "evals",
        Ops {
            attempted: eval_ms.len() as u64,
            failed: 0,
        },
    );
    report.gate(
        "eval_deterministic",
        identical,
        "every full-graph eval of a model returns its first eval's logits bitwise",
    );

    report.pct("train_s", &train_s, 50.0, "s");
    report.value(
        "test_acc",
        accs.iter().sum::<f64>() / accs.len() as f64,
        "share",
        &format!(
            "mean TrainResult::test_accuracy after {} epochs of calls {accs:?}",
            w.epochs
        ),
    );
    report.pct("eval_ms", &eval_ms, 50.0, "ms");
    served.expect("at least one training call")
}

/// Per-epoch phase timings of the traced replay.
#[derive(Default)]
struct Phases {
    begin: Samples,
    forward: Samples,
    loss: Samples,
    backward: Samples,
    optim: Samples,
    epoch: Samples,
}

/// Kernel-counter totals over the training steps only.
struct Counters {
    calls: [u64; kstats::KERNEL_COUNT],
    work: [u64; kstats::KERNEL_COUNT],
}

impl Counters {
    fn new() -> Self {
        Self {
            calls: [0; kstats::KERNEL_COUNT],
            work: [0; kstats::KERNEL_COUNT],
        }
    }

    fn add_delta(&mut self, before: &[kstats::KernelStat], after: &[kstats::KernelStat]) {
        for (i, (b, a)) in before.iter().zip(after).enumerate() {
            self.calls[i] += a.calls - b.calls;
            self.work[i] += a.work - b.work;
        }
    }

    fn get(&self, name: &str) -> (u64, u64) {
        let i = kstats::snapshot()
            .iter()
            .position(|s| s.name == name)
            .unwrap_or_else(|| panic!("kstats has no kernel {name:?}"));
        (self.calls[i], self.work[i])
    }
}

/// The trainer's epoch loop replayed from public calls, every phase
/// timed. Returns the test accuracy at the best-validation epoch.
fn traced_training(
    w: &Workload,
    graph: &Graph,
    adj: &Arc<CsrMatrix>,
    seed: u64,
    phases: &mut Phases,
    counters: &mut Counters,
) -> (f64, Box<dyn Model>) {
    let strategy = w.strategy();
    let cfg = w.train_config();
    let (mut model, split, mut rng) = fresh(w, graph, seed);
    let degrees = graph.degrees();
    let labels = graph.labels();

    let mut program = compile_train_program(model.as_ref(), graph, adj, &strategy, cfg.fuse)
        .expect("gcn compiles");
    let mut opt = Adam::new(model.store(), cfg.adam);

    let mut best_val = f64::NEG_INFINITY;
    let mut best_test = 0.0;
    for epoch in 0..cfg.epochs {
        let before = kstats::snapshot();
        let t_epoch = Instant::now();
        let epoch_adj =
            strategy.epoch_adjacency_edges(graph.num_nodes(), graph.edges(), adj, true, &mut rng);
        program.set_adjacency(epoch_adj);
        program.load_params(model.store().values());
        let mut fwd_rng = rng.split();
        let mut sampler = StrategySampler::new(&strategy, &degrees).with_order(graph.node_order());

        let t = Instant::now();
        program.begin_epoch(&mut sampler, &mut fwd_rng);
        phases.begin.push_ms(t.elapsed());

        let t = Instant::now();
        program.replay_forward();
        phases.forward.push_ms(t.elapsed());

        let head = program.heads()[0];
        let t = Instant::now();
        let loss = softmax_cross_entropy(program.value(head), labels, &split.train);
        phases.loss.push_ms(t.elapsed());

        let t = Instant::now();
        let mut grads = program.backward(vec![(head, loss.grad)]);
        phases.backward.push_ms(t.elapsed());

        let t = Instant::now();
        opt.step(model.store_mut(), &grads);
        phases.optim.push_ms(t.elapsed());

        for g in grads.drain(..).flatten() {
            workspace::give(g);
        }
        phases.epoch.push_ms(t_epoch.elapsed());
        counters.add_delta(&before, &kstats::snapshot());

        if epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs {
            let mut eval_rng = rng.split();
            let (logits, _) = evaluate(model.as_ref(), graph, adj, &strategy, &mut eval_rng);
            let val = accuracy(&logits, labels, &split.val);
            let test = accuracy(&logits, labels, &split.test);
            if val >= best_val {
                best_val = val;
                best_test = test;
            }
        }
    }
    (best_test, model)
}

/// The traced stage: per-layer training metrics from timed public calls
/// and the crates' own counters. Returns the untraced call's trained
/// model, the one that is served.
pub fn measure_traced(
    w: &Workload,
    graph: &Graph,
    adj: &Arc<CsrMatrix>,
    seed: u64,
    report: &mut Report,
) -> Box<dyn Model> {
    let load_ms = time_ms(LOAD_REPS, || w.generate_graph());
    let mut normalize_ms = Samples::default();
    for _ in 0..LOAD_REPS {
        let g = w.generate_graph();
        let t = Instant::now();
        std::hint::black_box(g.gcn_adjacency());
        normalize_ms.push_ms(t.elapsed());
    }
    let n = graph.num_nodes();
    let strategy = w.strategy();

    // Untraced reference call, counters off.
    kstats::set_enabled(false);
    let (mut model, split, mut rng) = fresh(w, graph, seed);
    let t = Instant::now();
    let untraced = train_node_classifier(
        model.as_mut(),
        graph,
        &split,
        &strategy,
        &w.train_config(),
        &mut rng,
    );
    let untraced_s = t.elapsed().as_secs_f64();

    // Traced replay, counters on.
    kstats::set_enabled(true);
    kstats::reset();
    let mut phases = Phases::default();
    let mut counters = Counters::new();
    let (probe_model, _, _) = fresh(w, graph, seed);
    let compile_ms = time_ms(COMPILE_REPS, || {
        compile_train_program(probe_model.as_ref(), graph, adj, &strategy, true)
            .expect("gcn compiles")
    });
    let t = Instant::now();
    let (traced_acc, replayed) = traced_training(w, graph, adj, seed, &mut phases, &mut counters);
    let traced_s = t.elapsed().as_secs_f64();
    kstats::set_enabled(false);
    let eval_ms = time_ms(TRACE_EVALS, || {
        evaluate(
            replayed.as_ref(),
            graph,
            adj,
            &strategy,
            &mut SplitRng::new(seed),
        )
    });
    report.ops(
        "training runs",
        Ops {
            attempted: 2,
            failed: 0,
        },
    );
    report.gate(
        "traced_matches_untraced",
        traced_acc.to_bits() == untraced.test_accuracy.to_bits(),
        &format!(
            "test_acc untraced {} traced {traced_acc}",
            untraced.test_accuracy
        ),
    );
    let phase_sum = phases.begin.median()
        + phases.forward.median()
        + phases.loss.median()
        + phases.backward.median()
        + phases.optim.median();
    let coverage = phase_sum / phases.epoch.median();
    report.gate(
        "phases_cover_epoch",
        (0.95..=1.05).contains(&coverage),
        &format!("phase p50 sum / epoch p50 = {coverage:.4}"),
    );

    // Kernel micro-timings on the workload's own shapes.
    let mut krng = SplitRng::new(seed ^ 0x6b65_726e);
    let h = krng.uniform_matrix(n, HIDDEN, -1.0, 1.0);
    let w_in = krng.uniform_matrix(graph.feature_dim(), HIDDEN, -1.0, 1.0);
    let w_hid = krng.uniform_matrix(HIDDEN, HIDDEN, -1.0, 1.0);
    let spmm_ms = time_ms(60, || workspace::give(adj.spmm(&h)));
    let gemm_in_ms = time_ms(30, || workspace::give(graph.features().matmul(&w_in)));
    let gemm_hid_ms = time_ms(60, || workspace::give(h.matmul(&w_hid)));

    report.pct("graph.load_ms", &load_ms, 50.0, "ms");
    report.pct("sparse.normalize_ms", &normalize_ms, 50.0, "ms");
    report.pct("nn.compile_ms", &compile_ms, 50.0, "ms");
    report.pct("autograd.begin_epoch_ms", &phases.begin, 50.0, "ms");
    report.pct("autograd.forward_ms", &phases.forward, 50.0, "ms");
    report.pct("autograd.loss_ms", &phases.loss, 50.0, "ms");
    report.pct("autograd.backward_ms", &phases.backward, 50.0, "ms");
    report.pct("nn.optim_ms", &phases.optim, 50.0, "ms");
    report.pct("autograd.epoch_ms", &phases.epoch, 50.0, "ms");
    report.pct("autograd.epoch_ms.p90", &phases.epoch, 90.0, "ms");
    report.pct("eval_ms.p90", &eval_ms, 90.0, "ms");
    report.value(
        "autograd.phase_coverage",
        coverage,
        "share",
        "phase p50 sum / epoch p50",
    );
    report.pct("sparse.spmm_ms", &spmm_ms, 50.0, "ms");
    report.pct("tensor.gemm_ms.in", &gemm_in_ms, 50.0, "ms");
    report.pct("tensor.gemm_ms.hid", &gemm_hid_ms, 50.0, "ms");

    let epochs = w.epochs as f64;
    for (layer, kernel) in [
        ("tensor", "gemm"),
        ("tensor", "gemm_at_b"),
        ("tensor", "gemm_a_bt"),
        ("sparse", "spmm"),
        ("sparse", "spmm_subset"),
        ("sparse", "spmm_compact"),
        ("tensor", "elemwise"),
        ("tensor", "adam"),
    ] {
        let (calls, work) = counters.get(kernel);
        let note = "kstats, mean per training step";
        report.value(
            &format!("{layer}.{kernel}.calls"),
            calls as f64 / epochs,
            "count",
            note,
        );
        report.value(
            &format!("{layer}.{kernel}.work"),
            work as f64 / epochs,
            "count",
            note,
        );
    }
    // A depth-2 GCN has no middle layer for SkipNode to act on, so no
    // `spmm_subset` call: every row stays active.
    let (subset_calls, subset_rows) = counters.get("spmm_subset");
    report.value(
        "core.skip_active_share",
        if subset_calls == 0 {
            1.0
        } else {
            subset_rows as f64 / (subset_calls as f64 * n as f64)
        },
        "share",
        "spmm_subset rows / (spmm_subset calls x n); 1 without a middle layer",
    );
    // One Ã·(n×64) SpMM: CSR arrays once, one gathered 64-wide operand row
    // per nonzero, one written output row per node.
    let nnz = adj.nnz() as f64;
    let bytes = nnz * (4.0 + 4.0)
        + (n as f64 + 1.0) * 8.0
        + nnz * HIDDEN as f64 * 4.0
        + n as f64 * HIDDEN as f64 * 4.0;
    report.value(
        "sparse.spmm.bytes_computed",
        bytes,
        "B",
        "computed from nnz and widths, not measured",
    );
    report.value(
        "bench.trace_overhead.train_s",
        traced_s - untraced_s,
        "s",
        &format!("traced replay {traced_s:.3} s minus untraced call {untraced_s:.3} s"),
    );
    model
}
