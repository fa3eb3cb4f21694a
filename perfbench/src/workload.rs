//! The three workloads. Each runs the same pipeline: set-up, training,
//! full-graph evaluation of the trained models, then serving the first
//! trained model from its checkpoint. They differ in the graph, the
//! depth, how much training they do and what the served traffic is, and
//! so in which stage carries the cost.

use skipnode_core::{Sampling, SkipNodeConfig};
use skipnode_graph::{
    load, partition_graph, DatasetName, FeatureStyle, Graph, PartitionConfig, Scale,
};
use skipnode_nn::{BackboneSpec, Strategy, TrainConfig};
use skipnode_tensor::SplitRng;

/// Generation seed of the synthetic Cora: the dataset, not the input.
const CORA_SEED: u64 = 7;
/// Generation seed of the serving graph: the partition graph the serving
/// runtime was first measured on.
const PARTITION_SEED: u64 = 9;
const PARTITION_NODES: usize = 12_000;
const PARTITION_DIM: usize = 32;
const PARTITION_CLASSES: usize = 8;

pub const HIDDEN: usize = 64;
const DROPOUT: f64 = 0.5;
const EVAL_EVERY: usize = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum GraphSource {
    /// `load(Cora, Scale::Bench)`: 2708 nodes, 1433 features, 7 classes.
    Cora,
    /// `partition_graph`: 12k nodes, 48k edges, 32 features, 8 classes.
    Partition,
}

pub struct Workload {
    pub name: &'static str,
    pub graph: GraphSource,
    pub depth: usize,
    /// Seeded training calls per untraced run; `train_s` is their median
    /// and `test_acc` their mean.
    pub train_calls: u64,
    /// Fixed epoch budget of one training call (early stopping off).
    pub epochs: usize,
    /// Full-graph evaluations of each trained model.
    pub evals_per_call: usize,
    /// Every `write_every`-th served op is a graph update (0: read-only).
    pub write_every: usize,
    /// The frozen open-loop offered loads `(lo, hi)` in ops/s: about 25%
    /// and 50% of the closed-loop capacity measured when the benchmark
    /// was defined (2 vCPUs).
    pub rates: (f64, f64),
    /// Capacity ceiling sizing the closed loop's schedule, well above any
    /// capacity seen, so a window never runs out of ops.
    pub max_ops_per_s: f64,
    /// Share of `--seconds` the untraced run spends in the closed loop.
    pub cap_share: f64,
    /// Training gets every core; otherwise one core is left to the load
    /// generator (the server worker is itself one of the pool's threads).
    pub train_heavy: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-d16",
        graph: GraphSource::Cora,
        depth: 16,
        train_calls: 3,
        epochs: 100,
        evals_per_call: 30,
        write_every: 0,
        rates: (375.0, 750.0),
        max_ops_per_s: 10_000.0,
        cap_share: 0.4,
        train_heavy: true,
    },
    Workload {
        name: "serve-d4-read",
        graph: GraphSource::Partition,
        depth: 4,
        train_calls: 3,
        epochs: 20,
        evals_per_call: 20,
        write_every: 0,
        rates: (450.0, 900.0),
        max_ops_per_s: 10_000.0,
        cap_share: 1.0,
        train_heavy: false,
    },
    Workload {
        name: "serve-d2-write",
        graph: GraphSource::Partition,
        depth: 2,
        train_calls: 3,
        epochs: 20,
        evals_per_call: 20,
        write_every: 5,
        rates: (7_000.0, 14_000.0),
        max_ops_per_s: 150_000.0,
        cap_share: 1.0,
        train_heavy: false,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn generate_graph(&self) -> Graph {
        match self.graph {
            GraphSource::Cora => load(DatasetName::Cora, Scale::Bench, CORA_SEED),
            GraphSource::Partition => partition_graph(
                &PartitionConfig {
                    n: PARTITION_NODES,
                    m: 4 * PARTITION_NODES,
                    classes: PARTITION_CLASSES,
                    homophily: 0.8,
                    power: 0.3,
                },
                PARTITION_DIM,
                FeatureStyle::BinaryBagOfWords {
                    active: 6,
                    fidelity: 0.9,
                    confusion: 0.1,
                },
                &mut SplitRng::new(PARTITION_SEED),
            ),
        }
    }

    /// The depth-tuned SkipNode rate of the paper-table harness
    /// (`tuned_rho`): 0.5 up to depth 9, 0.8 up to 23, 0.9 beyond.
    pub fn rho(&self) -> f64 {
        match self.depth {
            0..=9 => 0.5,
            10..=23 => 0.8,
            _ => 0.9,
        }
    }

    /// SkipNode-U at the depth-tuned rate.
    pub fn strategy(&self) -> Strategy {
        Strategy::SkipNode(SkipNodeConfig::new(self.rho(), Sampling::Uniform))
    }

    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            patience: 0,
            eval_every: EVAL_EVERY,
            ..TrainConfig::default()
        }
    }

    /// GCN of the workload's depth, hidden 64, dropout 0.5.
    pub fn spec(&self, graph: &Graph) -> BackboneSpec {
        BackboneSpec::new(
            "gcn",
            graph.feature_dim(),
            HIDDEN,
            graph.num_classes(),
            self.depth,
            DROPOUT,
        )
    }

    pub fn pool_threads(&self, nproc: usize) -> usize {
        if self.train_heavy {
            nproc
        } else {
            nproc.saturating_sub(1).max(1)
        }
    }

    /// Share of scheduled served ops that are reads.
    pub fn read_share(&self) -> f64 {
        match self.write_every {
            0 => 1.0,
            k => 1.0 - 1.0 / k as f64,
        }
    }
}
