//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-d16|serve-d4-read|serve-d2-write> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs one pipeline: set-up, training, full-graph
//! evaluation, then serving the trained model from its checkpoint
//! (`workload.rs` says how much of each). Correctness gates run before
//! each measurement; a failed gate fails the run. With `--trace 0` the
//! run measures the end-to-end metrics with the kernel counters off; with
//! `--trace 1` it times the calls into each crate from here and reads the
//! crates' own counters. Either way the result holds every metric
//! `BENCHMARK.json` lists for that mode, or the run fails. The last
//! stdout line is the JSON result. See `perfbench/README.md` for every
//! metric.

mod load;
mod metrics;
mod report;
mod serve;
mod train;
mod workload;

use report::{timed_setup, Report};
use skipnode_graph::Graph;
use skipnode_nn::ModelCheckpoint;
use skipnode_sparse::CsrMatrix;
use skipnode_tensor::SplitRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use workload::{Workload, WORKLOADS};

/// Untimed warm-up set-ups, then timed ones; `setup_s` is their median.
const SETUP_WARMUP: usize = 10;
const SETUP_REPS: usize = 25;

/// Library switches read from the environment; the benchmark pins each to
/// its default so a stray variable cannot change what is measured.
const PINNED_ENV: [&str; 7] = [
    "SKIPNODE_KERNEL_STATS",
    "SKIPNODE_PRECISION",
    "SKIPNODE_PREC_TOL",
    "SKIPNODE_SIMD",
    "SKIPNODE_TUNE",
    "SKIPNODE_SHARDS",
    "SKIPNODE_RUN_PARALLEL",
];

struct Args {
    workload: &'static Workload,
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
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checked-out revision, read from `.git` when the run happens inside
/// a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    std::fs::read_to_string(format!(".git/{reference}"))
        .map(|r| r.trim().to_string())
        .or_else(|_| {
            std::fs::read_to_string(".git/packed-refs").map(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .unwrap_or("unknown")
                    .to_string()
            })
        })
        .unwrap_or_else(|_| "unknown".into())
}

/// Graph generation, adjacency build, checkpoint byte round-trip and
/// engine restore: the measured set-up. The checkpoint holds seeded
/// initial weights (restore cost does not depend on their values).
fn setup(w: &Workload, ckpt: &ModelCheckpoint) -> (Graph, Arc<CsrMatrix>) {
    let graph = w.generate_graph();
    let adj = graph.gcn_adjacency();
    let mut bytes = Vec::new();
    ckpt.write(&mut bytes).expect("checkpoint serializes");
    let restored = ModelCheckpoint::read(bytes.as_slice()).expect("checkpoint reads back");
    serve::restore(&restored, &graph);
    (graph, adj)
}

/// Set-up, training and evaluation, then serving the first trained model.
fn run(args: &Args, report: &mut Report) {
    let w = args.workload;
    let spec = w.spec(&w.generate_graph());
    let init = spec
        .build(&mut SplitRng::new(args.seed ^ 0x6d6f_64656c))
        .expect("gcn builds");
    let init = ModelCheckpoint::capture(&spec, init.as_ref());
    let ((graph, adj), setup_s) = if args.trace {
        (setup(w, &init), None)
    } else {
        let (done, secs) = timed_setup(SETUP_WARMUP, SETUP_REPS, || setup(w, &init));
        (done, Some(secs))
    };

    let model = if args.trace {
        train::measure_traced(w, &graph, &adj, args.seed, report)
    } else {
        train::measure(w, &graph, &adj, args.seed, report)
    };
    let ckpt = ModelCheckpoint::capture(&spec, model.as_ref());
    drop(model);
    serve::run(
        w,
        &ckpt,
        &graph,
        args.seed,
        args.seconds,
        args.trace,
        report,
    );
    if let Some(secs) = setup_s {
        report.pct("setup_s", &secs, 50.0, "s");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = args.workload.pool_threads(nproc);
    // Single-threaded here: nothing has touched the pool or read the
    // environment yet.
    std::env::set_var("SKIPNODE_THREADS", pool.to_string());
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    skipnode_tensor::kstats::set_enabled(false);

    println!(
        "stamp {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": \"{}\", \"nproc\": {}, \"pool_threads\": {}, \"simd\": \"{}\"}}",
        args.workload.name,
        args.seed,
        args.seconds,
        args.trace,
        git_rev(),
        nproc,
        skipnode_tensor::pool::num_threads(),
        skipnode_tensor::simd::active().name()
    );

    let ticks = report::cpu_ticks();
    let mut report = Report::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&args, &mut report)));
    if outcome.is_err() {
        report.gate("no_panic", false, "the workload panicked (message above)");
    }
    let expected: &[&str] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    report.expect_metrics(expected);
    // Steal slows every timing of a run alike; it explains runs that read
    // slow across the board.
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks, report::cpu_ticks()) {
        println!(
            "host steal: {:.3} of CPU time during the run",
            (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
