//! The load generator: one thread drives an [`InferenceServer`] open-loop
//! (ops due on a fixed schedule) or closed-loop (a fixed number of reads
//! in flight).
//!
//! The thread never spins. Between ops it blocks on the oldest
//! outstanding reply with a timeout that ends when the next op is due;
//! on each wake it submits every op that has come due. The server
//! answers in submission order, so waiting on the oldest reply stamps
//! each completion when it lands. Open-loop latency runs from the op's
//! due time, so a stall also charges the ops queued behind it.
//!
//! A reply channel that disconnects, a reply that never comes, or a row
//! that fails the caller's check counts its read as failed; a worker that
//! panicked counts the phase's writes as failed. Nothing here aborts or
//! waits without a deadline.

use crate::report::{Ops, Samples};
use skipnode_graph::GraphUpdate;
use skipnode_serve::{EngineStats, InferenceServer, ServeEngine, ServerStats};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

/// One scheduled operation.
pub enum Op {
    Read(usize),
    Write(GraphUpdate),
}

/// Longest wait for any one reply before the server counts as stalled
/// (a healthy server answers a full batch in tens of milliseconds).
const STALL_LIMIT: Duration = Duration::from_secs(3);

/// What one phase did.
pub struct Outcome {
    pub reads: Ops,
    pub writes: Ops,
    /// Open loop: read latency from due time, one set per equal window
    /// of the schedule (by due time).
    pub latency_ms: Vec<Samples>,
    /// Open loop: how late each op was submitted after its due time.
    pub late_ms: Samples,
    /// Open loop: reads outstanding when half the schedule, and all of
    /// it, had been submitted.
    pub backlog_mid: usize,
    pub backlog_end: usize,
    /// Closed loop: reads answered plus writes handed over, per second
    /// from the first submission to the last answer.
    pub ops_per_s: f64,
    /// The server's state after shutdown; `None` if its worker panicked.
    pub server: Option<(ServeEngine, ServerStats, EngineStats)>,
}

struct Pending {
    due: Instant,
    node: usize,
    rx: Receiver<Vec<f32>>,
}

/// Bookkeeping shared by both loops.
struct Generator<C: Fn(usize, &[f32]) -> bool> {
    server: InferenceServer,
    check: C,
    pending: VecDeque<Pending>,
    out: Outcome,
    start: Instant,
    /// Open loop: length of one latency window.
    window: Duration,
    last_answer: Instant,
}

impl<C: Fn(usize, &[f32]) -> bool> Generator<C> {
    fn new(server: InferenceServer, check: C, windows: usize, window: Duration) -> Self {
        let start = Instant::now();
        Self {
            server,
            check,
            pending: VecDeque::new(),
            out: Outcome {
                reads: Ops::default(),
                writes: Ops::default(),
                latency_ms: vec![Samples::default(); windows],
                late_ms: Samples::default(),
                backlog_mid: 0,
                backlog_end: 0,
                ops_per_s: 0.0,
                server: None,
            },
            start,
            window,
            last_answer: start,
        }
    }

    fn submit(&mut self, op: &Op, due: Instant) {
        match op {
            Op::Read(node) => {
                let rx = self.server.submit(*node);
                self.out.reads.attempted += 1;
                self.pending.push_back(Pending {
                    due,
                    node: *node,
                    rx,
                });
            }
            Op::Write(update) => {
                self.server.update(update.clone());
                self.out.writes.attempted += 1;
            }
        }
    }

    fn complete(&mut self, row: Result<Vec<f32>, ()>) {
        let p = self.pending.pop_front().expect("a pending read");
        let now = Instant::now();
        match row {
            Ok(row) if (self.check)(p.node, &row) => {
                self.last_answer = now;
                if !self.out.latency_ms.is_empty() {
                    let w =
                        ((p.due - self.start).as_secs_f64() / self.window.as_secs_f64()) as usize;
                    let w = w.min(self.out.latency_ms.len() - 1);
                    self.out.latency_ms[w].push_ms(now - p.due);
                }
            }
            _ => self.out.reads.failed += 1,
        }
    }

    /// Wait until `until` for the oldest reply, then take every reply
    /// that has already landed. Returns false when the oldest reply
    /// stalled past [`STALL_LIMIT`].
    fn wait(&mut self, until: Instant) -> bool {
        let Some(head) = self.pending.front() else {
            std::thread::sleep(until.saturating_duration_since(Instant::now()));
            return true;
        };
        match head
            .rx
            .recv_timeout(until.saturating_duration_since(Instant::now()))
        {
            Ok(row) => self.complete(Ok(row)),
            Err(RecvTimeoutError::Disconnected) => self.complete(Err(())),
            Err(RecvTimeoutError::Timeout) => return head.due.elapsed() < STALL_LIMIT,
        }
        while let Some(head) = self.pending.front() {
            match head.rx.try_recv() {
                Ok(row) => self.complete(Ok(row)),
                Err(TryRecvError::Disconnected) => self.complete(Err(())),
                Err(TryRecvError::Empty) => break,
            }
        }
        true
    }

    /// Wait out the remaining replies, fail whatever stalls, and shut the
    /// server down.
    fn finish(mut self) -> Outcome {
        let mut last_progress = Instant::now();
        while !self.pending.is_empty() {
            let before = self.pending.len();
            self.wait(Instant::now() + Duration::from_millis(100));
            if self.pending.len() < before {
                last_progress = Instant::now();
            } else if last_progress.elapsed() > STALL_LIMIT {
                self.out.reads.failed += self.pending.len() as u64;
                self.pending.clear();
            }
        }
        let answered = self.out.reads.attempted - self.out.reads.failed;
        let busy = (self.last_answer - self.start).as_secs_f64().max(1e-9);
        self.out.ops_per_s = (answered + self.out.writes.attempted) as f64 / busy;
        // A panicked worker loses its engine; its writes cannot be
        // confirmed, so they count as failed.
        let server = self.server;
        self.out.server = catch_unwind(AssertUnwindSafe(|| server.shutdown())).ok();
        self.out.writes.failed = match &self.out.server {
            Some((_, _, engine)) => self.out.writes.attempted - engine.updates,
            None => self.out.writes.attempted,
        };
        self.out
    }
}

/// Open loop: op `i` is due at `start + arrivals[i]`; read latencies are
/// kept per each of `windows` equal parts of `length`.
pub fn open_loop(
    server: InferenceServer,
    ops: &[Op],
    arrivals: &[Duration],
    length: Duration,
    windows: usize,
    check: impl Fn(usize, &[f32]) -> bool,
) -> Outcome {
    let mut d = Generator::new(server, check, windows, length / windows as u32);
    let start = d.start;
    let due = |i: usize| start + arrivals[i];
    let mut next = 0;
    while next < ops.len() {
        let now = Instant::now();
        while next < ops.len() && due(next) <= now {
            d.out.late_ms.push_ms(Instant::now() - due(next));
            d.submit(&ops[next], due(next));
            next += 1;
            if next == ops.len() / 2 {
                d.out.backlog_mid = d.pending.len();
            }
        }
        if next < ops.len() {
            d.wait(due(next));
        }
    }
    d.out.backlog_end = d.pending.len();
    d.finish()
}

/// Closed loop: keep `in_flight` reads outstanding for `length` (or until
/// the schedule runs out). Writes ride the same schedule.
pub fn closed_loop(
    server: InferenceServer,
    ops: &[Op],
    in_flight: usize,
    length: Duration,
    check: impl Fn(usize, &[f32]) -> bool,
) -> Outcome {
    let mut d = Generator::new(server, check, 0, length);
    let end = d.start + length;
    let mut next = 0;
    while Instant::now() < end {
        while next < ops.len() && d.pending.len() < in_flight {
            d.submit(&ops[next], Instant::now());
            next += 1;
        }
        if d.pending.is_empty() || !d.wait(end) {
            break;
        }
    }
    d.finish()
}
