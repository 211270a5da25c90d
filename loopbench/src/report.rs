//! The run report: metadata stamp, metrics with units, check results,
//! and the one-line result the harness contract asks for.

use crate::oracle::Verdict;
use crate::setup::{self, System};
use crate::workloads::{Run, Workload, CLIENTS, HOT_POOL, PROBES, TOPICS, TURNS};
use qkb_net::{JournalConfig, NetConfig};
use qkb_serve::ServeConfig;
use qkb_util::json::Value;

/// Version of the report layout; bump when a metric changes meaning.
pub const SCHEMA_VERSION: u64 = 1;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Everything one invocation reports.
pub struct Outcome {
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Reported with them but not part of the result line.
    pub extras: Vec<Metric>,
    /// (phase, what, verdict).
    pub checks: Vec<(&'static str, &'static str, Verdict)>,
    pub notes: Vec<String>,
    /// Metadata and run details (printed as one JSON line).
    pub report: Value,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            metrics: Vec::new(),
            extras: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
            report: Value::object(),
        }
    }
}

impl Outcome {
    pub fn metric(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn extra(&mut self, m: Metric) {
        self.extras.push(m);
    }

    pub fn check(&mut self, phase: &'static str, what: &'static str, v: Verdict) {
        self.checks.push((phase, what, v));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn attempted(&self) -> u64 {
        self.checks.iter().map(|(_, _, v)| v.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.checks.iter().map(|(_, _, v)| v.failed()).sum()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.attempted() > 0
    }

    /// Stamps the report with what the numbers depend on.
    pub fn describe(&mut self, system: &System, run: Run) {
        let serve = ServeConfig::default();
        let net = NetConfig::default();
        let mut meta = Value::object()
            .with("schema_version", SCHEMA_VERSION)
            .with("git_revision", git_revision())
            .with(
                "cores",
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            )
            .with("workload", run.workload.name())
            .with("seed", run.seed)
            .with("seconds", run.seconds)
            .with("trace", run.trace)
            .with("loop", "closed")
            .with("clients", CLIENTS)
            .with("connections_per_client", 1u64)
            .with(
                "corpus",
                Value::object()
                    .with("docs", system.corpus_docs())
                    .with("wiki_docs", setup::WIKI_DOCS)
                    .with("news_docs", setup::NEWS_DOCS),
            )
            .with(
                "requests",
                Value::object()
                    .with("distinct", system.requests.len())
                    .with("questions", system.requests.len() - system.entity_seeds)
                    .with("entity_seeds", system.entity_seeds),
            )
            .with("top_k", system.sys.top_k)
            .with(
                "serve_defaults",
                Value::object()
                    .with("shards", serve.shards)
                    .with("shards_resolved", qkb_util::effective_parallelism(0).min(8))
                    .with("fragment_cache_entries", serve.cache_capacity)
                    .with("stage1_cache_bytes", serve.stage1_cache_bytes)
                    .with("component_cache_bytes", serve.component_cache_bytes)
                    .with("session_bytes", serve.session_bytes)
                    .with("session_max", serve.session_max)
                    .with("session_forest_bytes", serve.session_forest_bytes)
                    .with("batch_max", serve.batch_max)
                    .with("batch_window_ms", serve.batch_window.as_secs_f64() * 1e3),
            )
            .with(
                "net_defaults",
                Value::object()
                    .with("inflight_per_connection", net.inflight_per_connection)
                    .with("queue_watermark", net.queue_watermark),
            );
        meta = match run.workload {
            Workload::QaCold => meta
                .with(
                    "pool",
                    Value::object()
                        .with("requests_per_pass", system.requests.len())
                        .with("passes", run.cold_passes()),
                )
                .with("recovery_probes", PROBES)
                .with("journal_policy", "none"),
            Workload::QaHot => meta
                .with(
                    "pool",
                    Value::object()
                        .with("hot_requests", HOT_POOL)
                        .with("requests_per_client", run.hot_requests_per_client()),
                )
                .with("recovery_probes", PROBES)
                .with("journal_policy", "none"),
            Workload::SessionsJournaled => {
                let j = JournalConfig::new("journal");
                meta.with(
                    "pool",
                    Value::object()
                        .with("topics", TOPICS)
                        .with("turns_per_session", TURNS)
                        .with("sessions_per_client", run.sessions_per_client()),
                )
                .with(
                    "journal_policy",
                    Value::object()
                        .with("fsync", j.fsync)
                        .with("snapshot_every", j.snapshot_every)
                        .with("segment_max_bytes", j.segment_max_bytes),
                )
            }
        };
        self.report = meta;
    }

    /// Prints the human-readable report, the metadata line and, last,
    /// the result line.
    pub fn print(&self) {
        println!("== loopbench ==");
        // Failed over attempted operations: error frames, BUSY replies,
        // transport errors and wrong answers. It reads 0 on a healthy
        // tree, so it stays out of the result's bounded metrics; the
        // result line carries `attempted` and `failed` instead.
        let error_rate = Metric::new(
            "error_rate",
            self.failed() as f64 / self.attempted().max(1) as f64,
            "ratio",
        )
        .note(format!(
            "{} of {} operations failed",
            self.failed(),
            self.attempted()
        ));
        for m in self.metrics.iter().chain(&self.extras).chain([&error_rate]) {
            println!(
                "  {:<32} {:>14.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for (phase, what, v) in &self.checks {
            println!(
                "check {phase} {what}: {} attempted, {} errors, {} mismatches, digest {:016x} over {} distinct",
                v.attempted, v.errors, v.mismatches, v.digest, v.distinct
            );
            for f in &v.failures {
                println!("  FAILED {f}");
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        let checks = Value::array(self.checks.iter().map(|(phase, what, v)| {
            Value::object()
                .with("phase", *phase)
                .with("check", *what)
                .with("attempted", v.attempted)
                .with("errors", v.errors)
                .with("mismatches", v.mismatches)
                .with("digest", format!("{:016x}", v.digest))
                .with("distinct", v.distinct)
        }));
        let extras = Value::array(self.extras.iter().chain([&error_rate]).map(|m| {
            Value::object()
                .with("name", m.name.as_str())
                .with("value", m.value)
                .with("unit", m.unit.as_str())
                .with("note", m.note.as_str())
        }));
        let report = self
            .report
            .clone()
            .with("checks", checks)
            .with("extras", extras);
        println!("report {report}");
        println!("{}", self.result_line());
    }

    /// The contract's last line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Value::object()
                    .with("value", m.value)
                    .with("unit", m.unit.as_str()),
            );
        }
        Value::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted())
            .with("failed", self.failed())
            .with("metrics", metrics)
            .to_string()
    }
}

/// The checkout's git revision, read from `.git` directly (no
/// subprocess); "unknown" outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
