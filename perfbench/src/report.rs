//! Raw samples, exact percentiles, and the result writer.
//!
//! Every timing is kept as raw samples and its percentiles are read off
//! the sorted samples (nearest rank), never from a bucketed histogram.
//! The writer prints one human-readable line per metric (value, unit,
//! sample count, which percentile the sample supports) and ends with the
//! single JSON result line. It refuses a metric name it has already
//! written.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Raw samples of one quantity, in the unit the metric reports.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// 1-based nearest rank of percentile `p` (given to 0.1) among `n`.
    fn rank(p: f64, n: usize) -> usize {
        let tenths = (p * 10.0).round() as usize;
        (tenths * n).div_ceil(1000).clamp(1, n.max(1))
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; NaN when empty.
    pub fn pct(&self, p: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return f64::NAN;
        }
        v[Self::rank(p, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
    pub fn highest_supported(&self) -> &'static str {
        let n = self.len();
        [("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0), ("p50", 50.0)]
            .into_iter()
            .find(|&(_, p)| n >= 1 && n - Self::rank(p, n) >= 10)
            .map_or("none", |(name, _)| name)
    }
}

/// Time `reps` calls of `f`, in milliseconds.
pub fn time_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> Samples {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        s.push_ms(t.elapsed());
    }
    s
}

/// Set up `warmup + reps` times and time the last `reps`, in seconds:
/// the first set-ups of a process fault in fresh memory and run slower
/// by a varying amount. Returns the last set-up's result.
pub fn timed_setup<R>(warmup: usize, reps: usize, mut setup: impl FnMut() -> R) -> (R, Samples) {
    let mut secs = Samples::default();
    let mut last = setup();
    for i in 1..warmup + reps {
        let t = Instant::now();
        last = setup();
        if i >= warmup {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    (last, secs)
}

/// Attempted and failed operations of one workload phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

struct Entry {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects metrics, phase op counts and gate outcomes for one run.
#[derive(Default)]
pub struct Report {
    entries: Vec<Entry>,
    names: BTreeSet<String>,
    ops: Vec<(String, Ops)>,
    failed_gates: usize,
}

impl Report {
    /// Record a plain value (a count, a ratio, a single measurement).
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        assert!(
            self.names.insert(name.to_string()),
            "metric {name:?} written twice"
        );
        println!("metric {name} = {value} {unit}  ({note})");
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record percentile `p` of `samples`, noting the sample count.
    pub fn pct(&mut self, name: &str, samples: &Samples, p: f64, unit: &'static str) {
        let note = format!(
            "p{p} of n={}, highest supported {}",
            samples.len(),
            samples.highest_supported()
        );
        self.value(name, samples.pct(p), unit, &note);
    }

    /// Record the median, over `windows`, of each window's percentile `p`:
    /// one stall on a shared machine then moves one window, not the value.
    pub fn windowed_pct(&mut self, name: &str, windows: &[Samples], p: f64, unit: &'static str) {
        let mut per_window = Samples::default();
        let mut pooled = Samples::default();
        for w in windows {
            per_window.push(w.pct(p));
            pooled.extend(w);
        }
        let smallest = windows.iter().min_by_key(|w| w.len()).expect("a window");
        let note = format!(
            "median over {} windows of each window's p{p}; smallest window n={}, highest supported {}; pooled p{p} = {:.4} over n={}",
            windows.len(),
            smallest.len(),
            smallest.highest_supported(),
            pooled.pct(p),
            pooled.len()
        );
        self.value(name, per_window.median(), unit, &note);
    }

    /// Record one phase's attempted/failed op counts.
    pub fn ops(&mut self, phase: &str, ops: Ops) {
        println!(
            "ops {phase}: attempted {} failed {}",
            ops.attempted, ops.failed
        );
        self.ops.push((phase.to_string(), ops));
    }

    /// Check a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: &str, ok: bool, detail: &str) {
        println!(
            "gate {name}: {}  {detail}",
            if ok { "pass" } else { "FAIL" }
        );
        if !ok {
            self.failed_gates += 1;
        }
    }

    /// The gate that the result holds exactly the `expected` metrics.
    pub fn expect_metrics(&mut self, expected: &[&str]) {
        let expected: BTreeSet<&str> = expected.iter().copied().collect();
        let written: BTreeSet<&str> = self
            .entries
            .iter()
            .filter(|e| e.value.is_finite())
            .map(|e| e.name.as_str())
            .collect();
        let missing: Vec<&str> = expected.difference(&written).copied().collect();
        let extra: Vec<&str> = written.difference(&expected).copied().collect();
        self.gate(
            "metrics_complete",
            missing.is_empty() && extra.is_empty(),
            &format!("missing or not finite {missing:?}; not listed {extra:?}"),
        );
    }

    pub fn gates_passed(&self) -> bool {
        self.failed_gates == 0
    }

    /// Whether the run is correct: every gate passed, no op failed, and
    /// every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.gates_passed()
            && self.ops.iter().all(|(_, o)| o.failed == 0)
            && self.entries.iter().all(|e| e.value.is_finite())
    }

    /// The JSON result line (the last line the benchmark prints).
    pub fn json(&self) -> String {
        let attempted: u64 = self.ops.iter().map(|(_, o)| o.attempted).sum();
        let failed: u64 = self.ops.iter().map(|(_, o)| o.failed).sum();
        let metrics: Vec<String> = self
            .entries
            .iter()
            .filter(|e| e.value.is_finite())
            .map(|e| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    e.name, e.value, e.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted.max(1),
            failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set size (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time of the whole machine from the first line of `/proc/stat`:
/// `(steal, total)` in clock ticks. Steal is time the hypervisor gave
/// to other guests while this one wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for x in (1..=100).rev() {
            s.push(x as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.pct(90.0), 90.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.highest_supported(), "p90");
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn duplicate_metric_names_are_refused() {
        let mut r = Report::default();
        r.value("x", 1.0, "s", "");
        r.value("x", 2.0, "s", "");
    }
}
