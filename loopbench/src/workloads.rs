//! The three workloads, each in an end-to-end (untraced) and a traced
//! form.
//!
//! All of them drive an in-process `QkbNetServer` over loopback TCP in a
//! closed loop from [`CLIENTS`] client threads, one connection each, and
//! leave `NetConfig`, `ServeConfig`, `JournalConfig` and
//! `QaSystem::top_k` at their defaults: the numbers describe the program
//! as shipped.

use crate::engine::{TimedEngine, TimedTurnLog};
use crate::load::{self, drive, median, stream_rng, tail, Op, OpSource, Phase, Record, Zipf};
use crate::oracle::{check_one_shots, check_recovered, check_sessions, Oracle, Verdict};
use crate::report::{Metric, Outcome};
use crate::setup::{self, System};
use crate::trace::{self, Breakdown, LAYERS};
use qkb_net::{JournalConfig, NetConfig, NetStats, QkbNetServer, SessionJournal};
use qkb_obs::{Recorder, RecorderConfig, Registry};
use qkb_qa::QaSystem;
use qkb_serve::{QueryEngine, QueryRequest, ServeConfig, TurnLog};
use qkb_util::json::Value;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client threads (one connection each).
pub const CLIENTS: usize = 2;
/// Set-up processes, and restarts, per end-to-end run: `setup_s` is the
/// median of the set-ups, `recovery_s` the fastest restart.
const SETUP_REPEATS: usize = 7;
/// The line a set-up process prints when it is ready to serve.
const READY: &str = "ready";
/// qa workloads: the size of the fixed probe set each restarted server
/// re-answers.
pub const PROBES: usize = 128;
/// `qa_hot`: distinct requests in the hot pool, the Zipf exponent, and
/// requests per client and measured second. 64 fragments fit the
/// default fragment cache (128 entries in 8 lock shards of 16) with room
/// for uneven sharding. The exponent is the repository's model of skewed
/// query traffic, Zipf(s = 1), as in `bench_serve` and `bench_forest`.
pub const HOT_POOL: usize = 64;
const HOT_ZIPF: f64 = 1.0;
const HOT_REQUESTS_PER_CLIENT_SECOND: usize = 375;
/// `sessions_journaled`: opening topics and their Zipf exponent (the
/// 5-topic Zipf(1) pool of `bench_forest`, whose forest gains are the
/// ones this workload exercises), turns per session, and sessions per
/// client and measured second, capped so all sessions stay resident
/// under the default `session_max` (1024).
pub const TOPICS: usize = 5;
const TOPIC_ZIPF: f64 = 1.0;
pub const TURNS: u64 = 5;
const SESSIONS_PER_CLIENT_SECOND: u64 = 33;
const MAX_SESSIONS_PER_CLIENT: u64 = 400;
/// Longest a phase may run before it is cut.
const MAX_PHASE: Duration = Duration::from_secs(100);
/// Flight-recorder ring per thread: large enough that a traced phase
/// evicts nothing (`trace.spans_dropped` reports it if it does).
const RING_CAPACITY: usize = 1 << 17;
/// ROADMAP's target for `trace.coverage_p50`.
pub const COVERAGE_TARGET: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    QaCold,
    QaHot,
    SessionsJournaled,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QaCold,
        Workload::QaHot,
        Workload::SessionsJournaled,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QaCold => "qa_cold",
            Workload::QaHot => "qa_hot",
            Workload::SessionsJournaled => "sessions_journaled",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Only set up as the run would, print [`READY`] and exit: one
    /// `setup_s` sample.
    pub setup_probe: bool,
}

/// Every phase runs a fixed amount of work for a given `--seconds`, sized
/// to take about that long on the reference machine (2 cores). A fixed
/// sample count keeps the tail percentile the same on every run and
/// every commit, and a fixed journal keeps `recovery_s` comparable; a
/// faster program simply finishes sooner.
impl Run {
    /// `qa_cold`: passes over the request universe (~3.3 s each).
    pub fn cold_passes(&self) -> u64 {
        (self.seconds / 3).max(1)
    }

    /// `qa_hot`: requests per client (~770 req/s in total).
    pub fn hot_requests_per_client(&self) -> usize {
        HOT_REQUESTS_PER_CLIENT_SECOND * self.seconds as usize
    }

    /// `sessions_journaled`: sessions per client, capped so that all of
    /// them stay resident under the default `session_max`.
    pub fn sessions_per_client(&self) -> u64 {
        (SESSIONS_PER_CLIENT_SECOND * self.seconds).min(MAX_SESSIONS_PER_CLIENT)
    }

    /// A safety stop for a phase that runs far slower than sized for.
    fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs(self.seconds * 4).min(MAX_PHASE)
    }
}

/// A per-run directory for journal files under the working directory,
/// removed when dropped.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("loopbench-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly when
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn net_config(
    recorder: Recorder,
    turn_log: Option<Arc<dyn TurnLog>>,
    journal: Option<JournalConfig>,
) -> NetConfig {
    NetConfig {
        journal,
        serve: ServeConfig {
            recorder,
            turn_log,
            ..ServeConfig::default()
        },
        ..NetConfig::default()
    }
}

fn start<E: QueryEngine>(engine: E, config: NetConfig) -> Result<QkbNetServer<E>, String> {
    QkbNetServer::start(engine, config).map_err(|e| format!("server start: {e}"))
}

fn plain(journal: Option<JournalConfig>) -> NetConfig {
    net_config(Recorder::disabled(), None, journal)
}

/// Process peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// Request generators (pure functions of the seed).
// ---------------------------------------------------------------------

/// The `qa_cold` order of pass `pass`: every distinct request once.
pub fn cold_pass(requests: &[QueryRequest], seed: u64, pass: u64) -> Vec<QueryRequest> {
    let mut order = requests.to_vec();
    order.shuffle(&mut stream_rng(seed, 100 + pass));
    order
}

/// Both clients take the next request of one shared pass.
fn pass_sources(order: Vec<QueryRequest>) -> Vec<OpSource> {
    let order = Arc::new(order);
    let cursor = Arc::new(AtomicUsize::new(0));
    (0..CLIENTS)
        .map(|_| {
            let (order, cursor) = (Arc::clone(&order), Arc::clone(&cursor));
            Box::new(move || {
                order
                    .get(cursor.fetch_add(1, Ordering::Relaxed))
                    .cloned()
                    .map(Op::Query)
            }) as OpSource
        })
        .collect()
}

/// The `qa_hot` pool: [`HOT_POOL`] distinct requests.
pub fn hot_pool(requests: &[QueryRequest], seed: u64) -> Vec<QueryRequest> {
    let mut pool = requests.to_vec();
    pool.shuffle(&mut stream_rng(seed, 200));
    pool.truncate(HOT_POOL);
    pool
}

/// Client `client`'s endless Zipf draws over the hot pool.
pub fn hot_requests(pool: &[QueryRequest], seed: u64, client: usize) -> impl Iterator<Item = Op> {
    let pool = pool.to_vec();
    let zipf = Zipf::new(pool.len(), HOT_ZIPF);
    let mut rng = stream_rng(seed, 300 + client as u64);
    std::iter::repeat_with(move || Op::Query(pool[zipf.sample(&mut rng)].clone()))
}

/// Client `client`'s sessions: each opens with an entity seed drawn
/// Zipf from [`TOPICS`] topics (so openings repeat and the prefix forest
/// forks) and follows up with requests drawn uniformly from the whole
/// request universe (so the KB extends with fresh documents).
pub fn session_turns(
    system_requests: &[QueryRequest],
    entities: &[QueryRequest],
    seed: u64,
    client: usize,
    sessions: u64,
) -> impl Iterator<Item = Op> {
    let mut topics = entities.to_vec();
    topics.shuffle(&mut stream_rng(seed, 400));
    topics.truncate(TOPICS);
    let zipf = Zipf::new(topics.len(), TOPIC_ZIPF);
    let requests = system_requests.to_vec();
    let mut rng = stream_rng(seed, 500 + client as u64);
    (0..sessions).flat_map(move |s| {
        let session = format!("c{client}-s{s}");
        let opening = topics[zipf.sample(&mut rng)].clone();
        let follow_ups: Vec<QueryRequest> = (1..TURNS)
            .map(|_| requests[rng.gen_range(0..requests.len())].clone())
            .collect();
        std::iter::once(opening)
            .chain(follow_ups)
            .zip(1..)
            .map(move |(request, turn)| Op::Turn {
                session: session.clone(),
                turn,
                request,
            })
            .collect::<Vec<_>>()
    })
}

fn sources<I: Iterator<Item = Op> + Send + 'static>(
    per_client: impl Fn(usize) -> I,
) -> Vec<OpSource> {
    (0..CLIENTS)
        .map(|c| {
            let mut ops = per_client(c);
            Box::new(move || ops.next()) as OpSource
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared phase plumbing.
// ---------------------------------------------------------------------

/// One client issues every request of `pool` once, in order; the replies
/// are checked later with the rest.
fn warm<E: QueryEngine>(
    server: &QkbNetServer<E>,
    pool: &[QueryRequest],
) -> Result<Vec<Record>, String> {
    let ops: Vec<Op> = pool.iter().cloned().map(Op::Query).collect();
    let mut ops = ops.into_iter();
    let source: OpSource = Box::new(move || ops.next());
    Ok(drive(
        server.local_addr(),
        vec![source],
        Instant::now() + MAX_PHASE,
    )?
    .records)
}

fn latencies(records: &[Record]) -> Vec<f64> {
    records.iter().map(|r| r.latency_ms).collect()
}

/// Everything the e2e metrics need from one timed phase.
struct Timed {
    records: Vec<Record>,
    elapsed: Duration,
    rss_mb: f64,
}

fn e2e_metrics(
    out: &mut Outcome,
    setup: &[f64],
    timed: &Timed,
    recovery_s: f64,
    recovery_note: &str,
) -> Result<(), String> {
    let lat = latencies(&timed.records);
    let secs = timed.elapsed.as_secs_f64();
    let done = timed.records.iter().filter(|r| r.reply.is_ok()).count();
    out.metric(Metric::new("setup_s", median(setup), "s").note(format!(
        "median of {} set-up processes, spawn to ready: {}",
        setup.len(),
        fmt_secs(setup)
    )));
    out.metric(
        Metric::new("throughput_rps", done as f64 / secs, "req/s")
            .note(format!("{done} completed in {secs:.2} s")),
    );
    out.metric(
        Metric::new("latency_p50_ms", median(&lat), "ms").note(format!("{} samples", lat.len())),
    );
    out.extra(tail_metric(&lat)?);
    out.metric(
        Metric::new("peak_rss_mb", timed.rss_mb, "MiB")
            .note("VmHWM at the end of the timed phase (qa_cold: of its first pass)"),
    );
    out.metric(Metric::new("recovery_s", recovery_s, "s").note(recovery_note.to_string()));
    Ok(())
}

/// `latency_tail_ms`: the client-observed latency at the highest
/// percentile with at least ten samples beyond it. It is reported with
/// the end-to-end metrics but gated nowhere: on a shared 2-core machine
/// the share of requests that wait behind a descheduled thread swings
/// with the neighbours' load, which moved the qa_hot p99 between 3.8
/// and 10 ms across ten runs of one tree.
fn tail_metric(latencies_ms: &[f64]) -> Result<Metric, String> {
    let t = tail(latencies_ms).ok_or_else(|| {
        format!(
            "{} samples leave no tail percentile with {} beyond it",
            latencies_ms.len(),
            load::TAIL_MIN_BEYOND
        )
    })?;
    Ok(Metric::new("latency_tail_ms", t.value, "ms").note(format!(
        "p{} of {} samples, {} beyond it",
        t.percentile, t.samples, t.beyond
    )))
}

/// The qa workloads' recovery probe: [`PROBES`] requests spread evenly
/// over the request universe, the same for every seed.
pub fn probe_set(requests: &[QueryRequest]) -> Vec<QueryRequest> {
    let step = (requests.len() / PROBES).max(1);
    requests
        .iter()
        .step_by(step)
        .take(PROBES)
        .cloned()
        .collect()
}

fn fmt_secs(times: &[f64]) -> String {
    times
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// `recovery_s` from a run's restarts: the fastest. A restart's work is
/// fixed by the journal (or the probe set), and a journal replays on one
/// thread, so its samples differ by how much the machine got in the way.
/// On a shared 2-core machine that came in spells longer than a run (a
/// replay ran 35% slower for a whole run while its CPU time tracked its
/// wall time), which a median carries straight into the result.
fn fastest(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `recovery_s` without a journal: a restarted server has nothing to
/// replay, so recovery is `QkbNetServer::start` plus the two clients
/// re-answering the fixed probe set on the cold caches, in the same
/// closed loop as the workload. (A single sequential client idles the
/// cores through every batch window, and its time flipped between two
/// levels 30% apart from run to run.)
#[derive(Default)]
struct Restarts {
    times: Vec<f64>,
    /// Every restart's probe replies, for checking.
    probe_replies: Vec<Record>,
}

impl Restarts {
    fn measure(&mut self, sys: &Arc<QaSystem>, probes: &[QueryRequest]) -> Result<(), String> {
        let t = Instant::now();
        let server = start(Arc::clone(sys), plain(None))?;
        let phase = drive(
            server.local_addr(),
            pass_sources(probes.to_vec()),
            Instant::now() + MAX_PHASE,
        )?;
        self.times.push(t.elapsed().as_secs_f64());
        drop(server);
        self.probe_replies.extend(phase.records);
        Ok(())
    }

    fn note(&self) -> String {
        format!(
            "no journal configured: fastest of {} restarts that re-answer the fixed probe set: {}",
            self.times.len(),
            fmt_secs(&self.times)
        )
    }
}

/// `setup_s` samples: [`SETUP_REPEATS`] fresh processes of this
/// benchmark, each timed from spawn until it prints [`READY`], that is
/// from process start to the point where the run's first timed request
/// would go out. `between` runs before each of them. They run after the
/// timed phase, interleaved with the restarts, so that both kinds of
/// samples span the end of the run rather than one burst of noise.
fn setup_samples(mut between: impl FnMut() -> Result<(), String>) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        between()?;
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(std::env::args_os().skip(1))
            .arg("--setup-probe")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up process: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let secs = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up process: {e}"))?;
        if !matches!(read, Some(Ok(_))) || line.trim() != READY || !status.success() {
            return Err(format!("set-up process failed ({status}): {line:?}"));
        }
        times.push(secs);
    }
    Ok(times)
}

/// A set-up process: prepares what `run` would, then reports ready. What
/// it built is torn down after the report, outside the timed span.
fn probe_setup(run: Run, run_dir: &RunDir) -> Result<(), String> {
    match run.workload {
        Workload::QaCold => ready(prepare_cold()?),
        Workload::QaHot => ready(prepare_hot(run)?),
        Workload::SessionsJournaled => ready(prepare_sessions(run_dir)?),
    }
}

fn ready<T>(prepared: T) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{READY}")
        .and_then(|()| stdout.flush())
        .map_err(|e| format!("stdout: {e}"))?;
    drop(prepared);
    Ok(())
}

// ---------------------------------------------------------------------
// End-to-end runs.
// ---------------------------------------------------------------------

pub fn run(run: Run, out: &mut Outcome) -> Result<(), String> {
    let run_dir = RunDir::create().map_err(|e| format!("run directory: {e}"))?;
    match (run.workload, run.trace) {
        _ if run.setup_probe => probe_setup(run, &run_dir),
        (Workload::QaCold, false) => qa_cold(run, out),
        (Workload::QaHot, false) => qa_hot(run, out),
        (Workload::SessionsJournaled, false) => sessions(run, &run_dir, out),
        (w, true) => traced(w, run, &run_dir, out),
    }
}

type Server = QkbNetServer<Arc<QaSystem>>;

fn prepare_cold() -> Result<(System, Server), String> {
    let system = setup::load();
    let server = start(Arc::clone(&system.sys), plain(None))?;
    Ok((system, server))
}

fn qa_cold(run: Run, out: &mut Outcome) -> Result<(), String> {
    let (system, first) = prepare_cold()?;
    out.describe(&system, run);

    let mut timed = Timed {
        records: Vec::new(),
        elapsed: Duration::ZERO,
        rss_mb: 0.0,
    };
    let deadline = run.deadline();
    let mut next = Some(first);
    let mut passes = 0u64;
    while passes < run.cold_passes() && Instant::now() < deadline {
        // Every pass runs on a fresh server (cold caches); starting it
        // is not part of the measured time.
        let server = match next.take() {
            Some(s) => s,
            None => start(Arc::clone(&system.sys), plain(None))?,
        };
        let order = cold_pass(&system.requests, run.seed, passes);
        let phase = drive(server.local_addr(), pass_sources(order), deadline)?;
        timed.elapsed += phase.elapsed;
        timed.records.extend(phase.records);
        // Peak RSS of serving is one server's lifetime: later passes only
        // add how the allocator reuses memory across server restarts.
        if passes == 0 {
            timed.rss_mb = peak_rss_mb();
        }
        passes += 1;
    }
    let probes = probe_set(&system.requests);
    let mut restarts = Restarts::default();
    let setup = setup_samples(|| restarts.measure(&system.sys, &probes))?;
    e2e_metrics(
        out,
        &setup,
        &timed,
        fastest(&restarts.times),
        &restarts.note(),
    )?;
    out.report.set("passes", passes);

    let oracle = Oracle::new(Arc::clone(&system.sys));
    out.check(
        "timed",
        "one-shot answers",
        check_one_shots(&oracle, &timed.records),
    );
    out.check(
        "restart",
        "probe answers",
        check_one_shots(&oracle, &restarts.probe_replies),
    );
    Ok(())
}

fn prepare_hot(run: Run) -> Result<(System, Server, Vec<QueryRequest>, Vec<Record>), String> {
    let system = setup::load();
    let pool = hot_pool(&system.requests, run.seed);
    let server = start(Arc::clone(&system.sys), plain(None))?;
    let warmup = warm(&server, &pool)?;
    Ok((system, server, pool, warmup))
}

fn qa_hot(run: Run, out: &mut Outcome) -> Result<(), String> {
    let (system, server, pool, warmup) = prepare_hot(run)?;
    out.describe(&system, run);
    let phase = drive(
        server.local_addr(),
        sources(|c| hot_requests(&pool, run.seed, c).take(run.hot_requests_per_client())),
        run.deadline(),
    )?;
    let timed = Timed {
        rss_mb: peak_rss_mb(),
        records: phase.records,
        elapsed: phase.elapsed,
    };
    drop(server);
    let probes = probe_set(&system.requests);
    let mut restarts = Restarts::default();
    let setup = setup_samples(|| restarts.measure(&system.sys, &probes))?;
    e2e_metrics(
        out,
        &setup,
        &timed,
        fastest(&restarts.times),
        &restarts.note(),
    )?;
    let oracle = Oracle::new(Arc::clone(&system.sys));
    out.check(
        "setup",
        "warm-up answers",
        check_one_shots(&oracle, &warmup),
    );
    out.check(
        "timed",
        "one-shot answers",
        check_one_shots(&oracle, &timed.records),
    );
    out.check(
        "restart",
        "probe answers",
        check_one_shots(&oracle, &restarts.probe_replies),
    );
    Ok(())
}

fn session_sources(system: &System, seed: u64, per_client: u64) -> Vec<OpSource> {
    let requests = system.requests.clone();
    let entities = system.entities().to_vec();
    sources(move |c| session_turns(&requests, &entities, seed, c, per_client))
}

/// Session-store evictions and unexpected resets are failures: the
/// workload is sized to fit the default budgets.
fn check_no_evictions(stats: &NetStats) -> Verdict {
    let s = &stats.serve.sessions;
    let evicted = s.evicted_ttl + s.evicted_pressure;
    let mut v = Verdict {
        attempted: 1,
        ..Verdict::default()
    };
    if evicted > 0 {
        v.mismatches = 1;
        v.failures.push(format!(
            "{evicted} sessions evicted at default budgets ({} resident bytes of {})",
            s.approx_bytes, s.capacity_bytes
        ));
    }
    v
}

fn prepare_sessions(run_dir: &RunDir) -> Result<(System, Server, PathBuf), String> {
    let system = setup::load();
    let dir = run_dir.path("journal");
    let server = start(
        Arc::clone(&system.sys),
        plain(Some(JournalConfig::new(&dir))),
    )?;
    Ok((system, server, dir))
}

fn sessions(run: Run, run_dir: &RunDir, out: &mut Outcome) -> Result<(), String> {
    let (system, mut server, dir) = prepare_sessions(run_dir)?;
    out.describe(&system, run);
    let phase = drive(
        server.local_addr(),
        session_sources(&system, run.seed, run.sessions_per_client()),
        run.deadline(),
    )?;
    let timed = Timed {
        rss_mb: peak_rss_mb(),
        records: phase.records,
        elapsed: phase.elapsed,
    };
    let stats = server.stats();
    server.shutdown();
    drop(server);

    // Recovery: restart on the journal (replay included) between the
    // set-up samples; the last recovered server stays up for the
    // byte-identity check.
    let mut recovered = None;
    let mut recoveries = Vec::new();
    let setup = setup_samples(|| {
        recovered = None;
        let t = Instant::now();
        recovered = Some(start(
            Arc::clone(&system.sys),
            plain(Some(JournalConfig::new(&dir))),
        )?);
        recoveries.push(t.elapsed().as_secs_f64());
        Ok(())
    })?;
    let recovered = recovered.expect("at least one recovery");
    let replay = recovered.replay_report();
    e2e_metrics(
        out,
        &setup,
        &timed,
        fastest(&recoveries),
        &format!(
            "fastest of {} QkbNetServer::start on the journal: {}; {} turns replayed, {} dropped",
            recoveries.len(),
            fmt_secs(&recoveries),
            replay.replayed_turns,
            replay.dropped_records
        ),
    )?;
    out.report
        .set("sessions", timed.records.len() as u64 / TURNS)
        .set(
            "journal",
            stats.journal.map(|j| j.to_json()).unwrap_or(Value::Null),
        );

    let oracle = Oracle::new(Arc::clone(&system.sys));
    let (turns, kbs) = check_sessions(&oracle, &timed.records);
    out.check("timed", "session turns", turns);
    out.check("timed", "session store", check_no_evictions(&stats));
    out.check(
        "restart",
        "recovered session KBs",
        check_recovered(&kbs, |id| recovered.session_kb_json(id)),
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Traced runs: an untraced phase and a traced phase over the same
// requests on fresh servers, so their difference is the tracing
// overhead, then the per-layer breakdown of the traced phase.
// ---------------------------------------------------------------------

/// A traced phase's inputs to the per-layer metrics.
struct TracedPhase {
    phase: Phase,
    warmup: Vec<Record>,
    stats: NetStats,
    spans: Vec<qkb_obs::SpanRecord>,
    spans_dropped: u64,
    engine: Arc<TimedEngine<Arc<QaSystem>>>,
    stage1_docs: u64,
    resolve_components: u64,
    journal: Option<(Arc<TimedTurnLog<SessionJournal>>, PathBuf)>,
}

fn traced(w: Workload, run: Run, run_dir: &RunDir, out: &mut Outcome) -> Result<(), String> {
    let system = setup::load();
    out.describe(&system, run);
    let sys = &system.sys;
    let pool = hot_pool(&system.requests, run.seed);
    // Each phase runs half the end-to-end work; qa_cold's runs one pass
    // (one server, so its tier stats and span trees are one server's).
    let make_sources = || match w {
        Workload::QaCold => pass_sources(cold_pass(&system.requests, run.seed, 0)),
        Workload::QaHot => {
            sources(|c| hot_requests(&pool, run.seed, c).take(run.hot_requests_per_client() / 2))
        }
        Workload::SessionsJournaled => {
            session_sources(&system, run.seed, run.sessions_per_client() / 2)
        }
    };
    let warm_pool: &[QueryRequest] = if w == Workload::QaHot { &pool } else { &[] };
    let oracle = Oracle::new(Arc::clone(sys));

    // Untraced phase: the program exactly as in the end-to-end run.
    let untraced = {
        let journal = (w == Workload::SessionsJournaled)
            .then(|| JournalConfig::new(run_dir.path("journal-untraced")));
        let server = start(Arc::clone(sys), plain(journal))?;
        let warmup = warm(&server, warm_pool)?;
        let phase = drive(server.local_addr(), make_sources(), run.deadline())?;
        drop(server);
        check_phase(w, "untraced", &oracle, &warmup, &phase.records, out);
        phase
    };

    // Traced phase: recorder on, engine and journal wrapped.
    let recorder = Recorder::enabled(RecorderConfig {
        ring_capacity: RING_CAPACITY,
        slow_threshold: None,
        ..RecorderConfig::default()
    });
    let engine = Arc::new(TimedEngine::new(Arc::clone(sys), recorder.clone()));
    let journal = match w {
        Workload::SessionsJournaled => {
            let dir = run_dir.path("journal-traced");
            let (j, _) = SessionJournal::open(JournalConfig::new(&dir), &Registry::new())
                .map_err(|e| format!("journal open: {e}"))?;
            Some((Arc::new(TimedTurnLog::new(j, recorder.clone())), dir))
        }
        _ => None,
    };
    let turn_log = journal
        .as_ref()
        .map(|(log, _)| Arc::clone(log) as Arc<dyn TurnLog>);
    // The turn-log slot is only honoured without a configured journal.
    let mut server = start(
        Arc::clone(&engine),
        net_config(recorder.clone(), turn_log, None),
    )?;
    let warmup = warm(&server, warm_pool)?;
    server.reset_stats();
    recorder.clear();
    engine.clear();
    let counters = sys.qkbfly().counters();
    let (stage1_before, components_before) =
        (counters.stage1_computed(), counters.resolve().components);
    let phase = drive(server.local_addr(), make_sources(), run.deadline())?;
    let stats = server.stats();
    let tp = TracedPhase {
        spans: recorder.records(),
        spans_dropped: recorder.dropped(),
        stage1_docs: counters.stage1_computed() - stage1_before,
        resolve_components: counters.resolve().components - components_before,
        phase,
        warmup,
        stats,
        engine,
        journal,
    };
    server.shutdown();
    drop(server);
    let kbs = check_phase(w, "traced", &oracle, &tp.warmup, &tp.phase.records, out);
    layer_metrics(sys, &tp, &untraced, &kbs, out)?;
    out.report.set("workload_traced", w.name());
    Ok(())
}

/// Checks one phase's replies; returns the sessions' reference KB JSON
/// (empty for the qa workloads).
fn check_phase<E: QueryEngine>(
    w: Workload,
    phase: &'static str,
    oracle: &Oracle<E>,
    warmup: &[Record],
    records: &[Record],
    out: &mut Outcome,
) -> BTreeMap<String, String> {
    if !warmup.is_empty() {
        out.check(phase, "warm-up answers", check_one_shots(oracle, warmup));
    }
    if w == Workload::SessionsJournaled {
        let (v, kbs) = check_sessions(oracle, records);
        out.check(phase, "session turns", v);
        kbs
    } else {
        out.check(phase, "one-shot answers", check_one_shots(oracle, records));
        BTreeMap::new()
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn layer_metrics(
    sys: &Arc<QaSystem>,
    tp: &TracedPhase,
    untraced: &Phase,
    kbs: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Result<(), String> {
    let lat = latencies(&tp.phase.records);
    let b: Breakdown = trace::breakdown(&tp.spans, &lat);
    let s = &tp.stats;
    let serve = &s.serve;
    let requests = serve.requests;
    let per_request = |span: &str| {
        b.durations_ms
            .get(span)
            .map_or(0.0, |d| d.iter().sum::<f64>())
            / b.requests.max(1) as f64
    };
    let mut m = |name: &str, value: f64, unit: &str| out.metric(Metric::new(name, value, unit));

    // qkb_net frame and admission.
    m("net.frame_ms.p50", median(&b.frame_ms), "ms");
    m("net.admission_wait_ms.p50", b.p50("admission_wait"), "ms");
    let shed = s.shed_connection + s.shed_global;
    m("net.shed_ratio", ratio(shed, s.requests + shed), "ratio");
    m("net.queue_depth_peak", s.queue_depth_peak as f64, "count");
    // qkb_serve batching and reuse tiers.
    m(
        "serve.batch_size.mean",
        ratio(requests, serve.batches),
        "count",
    );
    m(
        "serve.coalesced_ratio",
        ratio(serve.batch_coalesced + serve.inflight_coalesced, requests),
        "ratio",
    );
    m(
        "serve.fragment_hit_ratio",
        ratio(serve.cache.hits, serve.cache.hits + serve.cache.misses),
        "ratio",
    );
    m(
        "serve.fragment_lookup_ms.p50",
        b.p50("fragment_lookup"),
        "ms",
    );
    m(
        "serve.stage1_hit_ratio",
        ratio(serve.stage1.hits, serve.stage1.hits + serve.stage1.misses),
        "ratio",
    );
    m(
        "serve.stage1_bytes",
        serve.stage1.approx_bytes as f64,
        "bytes",
    );
    m(
        "serve.component_hit_ratio",
        ratio(
            serve.component.hits,
            serve.component.hits + serve.component.misses,
        ),
        "ratio",
    );
    m(
        "serve.component_bytes",
        serve.component.approx_bytes as f64,
        "bytes",
    );
    // qkb_session store and prefix forest.
    let ss = &serve.sessions;
    m(
        "session.fork_ratio",
        ratio(ss.turns_forked, ss.turns_cold),
        "ratio",
    );
    m("session.dedup_ratio", ss.dedup_rate(), "ratio");
    m("session.resident_bytes", ss.approx_bytes as f64, "bytes");
    m(
        "session.forest_shared_bytes",
        ss.forest.shared_bytes as f64,
        "bytes",
    );
    m("session.fork_ms.p50", b.p50("session_fork"), "ms");
    m("session.extend_ms.p50", b.p50("session_extend"), "ms");
    m(
        "session.evictions",
        (ss.evicted_ttl + ss.evicted_pressure) as f64,
        "count",
    );
    // qkb_qa retrieval and answering (benchmark-side engine wrapper).
    let retrieve = tp.engine.retrieve.snapshot();
    m("qa.retrieve_ms.p50", median(&retrieve), "ms");
    m("qa.retrieve_calls", retrieve.len() as f64, "count");
    m(
        "qa.doc_fingerprint_ms.p50",
        median(&tp.engine.doc_fingerprint.snapshot()),
        "ms",
    );
    m(
        "qa.doc_texts_ms.p50",
        median(&tp.engine.doc_texts.snapshot()),
        "ms",
    );
    let answer = tp.engine.answer.snapshot();
    m("qa.answer_ms.p50", median(&answer), "ms");
    m("qa.answer_calls", answer.len() as f64, "count");
    let answered: Vec<f64> = tp
        .phase
        .records
        .iter()
        .filter_map(|r| r.reply.as_ref().ok().map(|a| a.n_facts as f64))
        .collect();
    m(
        "kb.facts_per_answer",
        answered.iter().sum::<f64>() / answered.len().max(1) as f64,
        "count",
    );
    // qkbfly stage 1 and canonicalization.
    m("core.stage1_docs", tp.stage1_docs as f64, "count");
    m(
        "core.stage1_ms_per_doc",
        b.durations_ms
            .get("stage1")
            .map_or(0.0, |d| d.iter().sum::<f64>() / d.len().max(1) as f64),
        "ms",
    );
    m("core.preprocess_ms", per_request("preprocess"), "ms");
    m("core.graph_ms", per_request("graph"), "ms");
    m("core.resolve_ms", per_request("resolve"), "ms");
    m(
        "core.resolve_components",
        tp.resolve_components as f64,
        "count",
    );
    m("core.canon_ms", per_request("canonicalize"), "ms");
    m("core.canon_decide_ms", per_request("canon_decide"), "ms");
    m("core.canon_apply_ms", per_request("canon_apply"), "ms");

    // qkb_net journal (benchmark-side turn-log wrapper) and recovery.
    let (appends, jstats, recovery_ms_per_turn) = match &tp.journal {
        Some((log, dir)) => {
            let _ = log.inner().sync();
            let jstats = log.inner().stats();
            let t = Instant::now();
            let recovered = start(Arc::clone(sys), plain(Some(JournalConfig::new(dir))))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let replay = recovered.replay_report();
            out.check(
                "traced",
                "recovered session KBs",
                check_recovered(kbs, |id| recovered.session_kb_json(id)),
            );
            (
                log.appends.snapshot(),
                jstats,
                ms / replay.replayed_turns.max(1) as f64,
            )
        }
        None => (Vec::new(), Default::default(), 0.0),
    };
    let mut m = |name: &str, value: f64, unit: &str| out.metric(Metric::new(name, value, unit));
    m("net.journal.append_ms.p50", median(&appends), "ms");
    m("net.journal.appends", jstats.appends as f64, "count");
    m(
        "net.journal.bytes_per_turn",
        ratio(jstats.appended_bytes, jstats.appends),
        "bytes",
    );
    m("net.journal.fsyncs", jstats.fsyncs as f64, "count");
    m("net.recovery.ms_per_turn", recovery_ms_per_turn, "ms");

    // The layer table and the trace's own health.
    let coverage = trace::coverage_p50(&b, &lat);
    let untraced_p50 = median(&latencies(&untraced.records));
    let traced_p50 = median(&lat);
    let layer_ms = |layer: &str| b.layer_mean_ms.get(layer).copied().unwrap_or(0.0);
    for layer in LAYERS {
        m(&format!("layer.{layer}_ms"), layer_ms(layer), "ms");
    }
    m("layer.unexplained_ms", b.unexplained_mean_ms, "ms");
    out.metric(tail_metric(&latencies(&untraced.records))?);
    let mut m = |name: &str, value: f64, unit: &str| out.metric(Metric::new(name, value, unit));
    m("trace.coverage_p50", coverage, "ratio");
    m(
        "trace.span_coverage_p50",
        trace::span_coverage_p50(&b, &lat),
        "ratio",
    );
    m("trace.overhead_p50", traced_p50 - untraced_p50, "ms");
    m("trace.spans_dropped", tp.spans_dropped as f64, "count");
    m("trace.requests", b.requests as f64, "count");

    out.note(format!(
        "traced p50 {traced_p50:.3} ms vs untraced {untraced_p50:.3} ms over the same {} requests",
        tp.phase.records.len()
    ));
    let verdict = if coverage < COVERAGE_TARGET {
        "SHORTFALL: below"
    } else {
        "meets"
    };
    out.note(format!(
        "coverage: named layers explain {:.1}% of the traced p50 ({verdict} the {:.0}% target); \
         unexplained {:.3} ms per request on average: {}",
        coverage * 100.0,
        COVERAGE_TARGET * 100.0,
        b.unexplained_mean_ms,
        trace::CATCH_ALL
            .iter()
            .map(|l| format!("{l} {:.3} ms", layer_ms(l)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if tp.spans_dropped > 0 {
        out.note(format!(
            "{} spans were evicted from the flight-recorder rings; the breakdown is partial",
            tp.spans_dropped
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> (Vec<QueryRequest>, Vec<QueryRequest>) {
        let entities: Vec<QueryRequest> = (0..30)
            .map(|i| QueryRequest::entity(format!("entity {i}")))
            .collect();
        let requests = (0..100)
            .map(|i| QueryRequest::question(format!("question {i}?")))
            .chain(entities.iter().cloned())
            .collect();
        (requests, entities)
    }

    #[test]
    fn cold_passes_are_seeded_permutations() {
        let (requests, _) = universe();
        let a = cold_pass(&requests, 7, 0);
        assert_eq!(a, cold_pass(&requests, 7, 0));
        assert_ne!(a, cold_pass(&requests, 8, 0));
        assert_ne!(a, cold_pass(&requests, 7, 1));
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| x.text.cmp(&y.text));
        let mut expected = requests.clone();
        expected.sort_by(|x, y| x.text.cmp(&y.text));
        assert_eq!(sorted, expected, "a pass issues every request once");
    }

    #[test]
    fn hot_draws_are_seeded_and_stay_in_the_pool() {
        let (requests, _) = universe();
        let pool = hot_pool(&requests, 3);
        assert_eq!(pool.len(), HOT_POOL);
        assert_eq!(pool, hot_pool(&requests, 3));
        assert_ne!(pool, hot_pool(&requests, 4));
        let draws: Vec<Op> = hot_requests(&pool, 3, 0).take(500).collect();
        assert_eq!(
            draws,
            hot_requests(&pool, 3, 0).take(500).collect::<Vec<_>>()
        );
        assert_ne!(
            draws,
            hot_requests(&pool, 4, 0).take(500).collect::<Vec<_>>()
        );
        assert_ne!(
            draws,
            hot_requests(&pool, 3, 1).take(500).collect::<Vec<_>>()
        );
        assert!(draws
            .iter()
            .all(|op| matches!(op, Op::Query(r) if pool.contains(r))));
    }

    #[test]
    fn sessions_are_seeded_and_well_formed() {
        let (requests, entities) = universe();
        let ops: Vec<Op> = session_turns(&requests, &entities, 5, 1, 20).collect();
        assert_eq!(ops.len() as u64, 20 * TURNS);
        assert_eq!(
            ops,
            session_turns(&requests, &entities, 5, 1, 20).collect::<Vec<_>>()
        );
        assert_ne!(
            ops,
            session_turns(&requests, &entities, 6, 1, 20).collect::<Vec<_>>()
        );
        let mut openings = std::collections::BTreeSet::new();
        for (i, op) in ops.iter().enumerate() {
            let Op::Turn {
                session,
                turn,
                request,
            } = op
            else {
                panic!("sessions issue turns only");
            };
            assert_eq!(*session, format!("c1-s{}", i as u64 / TURNS));
            assert_eq!(*turn, i as u64 % TURNS + 1);
            if *turn == 1 {
                assert!(entities.contains(request), "openings are entity seeds");
                openings.insert(request.text.clone());
            }
        }
        assert!(
            openings.len() < 20 && openings.len() <= TOPICS,
            "openings repeat, so the prefix forest can fork"
        );
    }
}
