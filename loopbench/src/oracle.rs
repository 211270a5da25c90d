//! The output check: every reply is compared with an answer the
//! benchmark derives itself, off the serving path.
//!
//! * A one-shot answer must equal
//!   `answer_kb(req, build_kb(doc_texts(retrieve(req))).kb)`.
//! * Session turn `t` must equal the answer over a cold
//!   `stream_into_kb` of the documents of turns `1..=t`.
//! * A recovered session KB must serialize byte-identically to that
//!   cold reference KB.
//!
//! Only deterministic outputs are gated: answers, the document and fact
//! counts of the answering KB, and that a session turn extends its
//! session once the session holds documents (anything else is a reset). Which opening forks, cache hits and batch sizes
//! depend on how the clients interleave and are reported, not checked.
//!
//! The reference builds draw stage-1 artifacts from [`MemoStage1`]: each
//! is computed fresh by `process_doc_stage1` and memoised per exact
//! text, which by the `Stage1Provider` contract leaves every reference
//! KB byte-identical to a plain `build_kb` while paying stage 1 once per
//! distinct document.

use crate::load::{answers_digest, Op, Record, Reply};
use qkb_kb::OnTheFlyKb;
use qkb_serve::{QueryEngine, QueryKind, QueryRequest, Served};
use qkb_util::FxHashMap;
use qkbfly::{DocStage1, Qkbfly, Stage1Provider};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Stage-1 artifacts computed fresh and memoised per exact text.
#[derive(Default)]
pub struct MemoStage1 {
    memo: Mutex<FxHashMap<String, Arc<DocStage1>>>,
}

impl Stage1Provider for MemoStage1 {
    fn provide(&self, qkb: &Qkbfly, text: &str) -> Arc<DocStage1> {
        if let Some(hit) = self.memo.lock().expect("stage-1 memo poisoned").get(text) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(qkb.process_doc_stage1(text));
        let mut memo = self.memo.lock().expect("stage-1 memo poisoned");
        Arc::clone(memo.entry(text.to_string()).or_insert(fresh))
    }
}

/// What a correct reply carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub answers: Vec<String>,
    pub n_docs: u64,
    pub n_facts: u64,
}

/// Reference answers over one engine.
pub struct Oracle<E> {
    engine: E,
    stage1: MemoStage1,
    one_shot: Mutex<FxHashMap<(QueryKind, String), Expected>>,
}

impl<E: QueryEngine> Oracle<E> {
    pub fn new(engine: E) -> Self {
        Self {
            engine,
            stage1: MemoStage1::default(),
            one_shot: Mutex::default(),
        }
    }

    /// The documents a request retrieves, as texts.
    pub fn docs(&self, request: &QueryRequest) -> Vec<String> {
        self.engine.doc_texts(&self.engine.retrieve(request))
    }

    /// The correct reply to a stateless query.
    pub fn one_shot(&self, request: &QueryRequest) -> Expected {
        let key = (request.kind, request.text.clone());
        if let Some(hit) = self
            .one_shot
            .lock()
            .expect("answer memo poisoned")
            .get(&key)
        {
            return hit.clone();
        }
        let texts = self.docs(request);
        let built = self.engine.qkbfly().build_kb_with(&self.stage1, &texts);
        let expected = Expected {
            answers: self.engine.answer_kb(request, &built.kb),
            n_docs: built.per_doc.len() as u64,
            n_facts: built.kb.n_facts() as u64,
        };
        self.one_shot
            .lock()
            .expect("answer memo poisoned")
            .insert(key, expected.clone());
        expected
    }

    /// A cold KB over a session's accumulated documents.
    pub fn session_kb(&self, texts: &[String]) -> OnTheFlyKb {
        let mut kb = OnTheFlyKb::new();
        self.engine
            .qkbfly()
            .stream_into_kb(&self.stage1, &mut kb, texts);
        kb
    }

    /// The correct reply to a session turn whose session KB is `kb`.
    pub fn session_turn(&self, kb: &OnTheFlyKb, request: &QueryRequest) -> Expected {
        Expected {
            answers: self.engine.answer_kb(request, kb),
            n_docs: kb.n_docs() as u64,
            n_facts: kb.n_facts() as u64,
        }
    }

    /// The byte-identity surface of a session KB.
    pub fn kb_json(&self, kb: &OnTheFlyKb) -> String {
        kb.to_json(self.engine.qkbfly().patterns()).to_string()
    }
}

/// The outcome of checking a set of operations.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Errors, BUSY replies and transport failures.
    pub errors: u64,
    /// Replies that differ from the reference.
    pub mismatches: u64,
    /// Fingerprint over the distinct (operation, verified answer) pairs,
    /// in a canonical order, so runs can be compared.
    pub digest: u64,
    /// Distinct operations behind the digest.
    pub distinct: usize,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < MAX_FAILURES_SHOWN {
            self.failures.push(what);
        }
    }

    fn seal(&mut self, verified: BTreeMap<String, String>) {
        self.distinct = verified.len();
        self.digest = qkb_util::fingerprint_seq(verified.iter().flat_map(|(k, v)| [k, v]));
    }
}

const MAX_FAILURES_SHOWN: usize = 5;

fn matches(reply: &Reply, expected: &Expected) -> bool {
    reply.answers == answers_digest(&expected.answers)
        && reply.n_docs == expected.n_docs
        && reply.n_facts == expected.n_facts
}

fn mismatch(key: &str, reply: &Reply, expected: &Expected) -> String {
    format!(
        "{key}: served answers {:016x} ({} docs, {} facts), expected {:?} ({} docs, {} facts)",
        reply.answers,
        reply.n_docs,
        reply.n_facts,
        expected.answers,
        expected.n_docs,
        expected.n_facts
    )
}

fn op_key(request: &QueryRequest) -> String {
    format!("{:?}:{}", request.kind, request.text)
}

/// Checks stateless replies.
pub fn check_one_shots<E: QueryEngine>(oracle: &Oracle<E>, records: &[Record]) -> Verdict {
    let mut v = Verdict::default();
    let mut verified = BTreeMap::new();
    for r in records {
        v.attempted += 1;
        let Op::Query(request) = &r.op else {
            v.errors += 1;
            v.fail("session turn in a one-shot check".into());
            continue;
        };
        let reply = match &r.reply {
            Ok(reply) => reply,
            Err(e) => {
                v.errors += 1;
                v.fail(format!("{}: {e}", op_key(request)));
                continue;
            }
        };
        let expected = oracle.one_shot(request);
        if matches(reply, &expected) {
            verified.insert(op_key(request), expected.answers.join("\u{1f}"));
        } else {
            v.mismatches += 1;
            v.fail(mismatch(&op_key(request), reply, &expected));
        }
    }
    v.seal(verified);
    v
}

/// Checks session turns and returns the reference KB JSON of every
/// session, for the recovery check. Each session's turns are checked in
/// issue order (one client issued them all); sessions are independent,
/// so they are checked on [`CHECK_THREADS`] threads.
pub fn check_sessions<E: QueryEngine>(
    oracle: &Oracle<E>,
    records: &[Record],
) -> (Verdict, BTreeMap<String, String>) {
    let mut v = Verdict::default();
    let mut sessions: BTreeMap<&str, Vec<&Record>> = BTreeMap::new();
    for r in records {
        match &r.op {
            Op::Turn { session, .. } => sessions.entry(session).or_default().push(r),
            Op::Query(_) => {
                v.attempted += 1;
                v.errors += 1;
                v.fail("one-shot query in a session check".into());
            }
        }
    }
    let sessions: Vec<(&str, Vec<&Record>)> = sessions.into_iter().collect();
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_THREADS)
            .map(|t| {
                let sessions = &sessions;
                scope.spawn(move || {
                    let mut part = Part::default();
                    for (id, turns) in sessions.iter().skip(t).step_by(CHECK_THREADS) {
                        let kb =
                            check_session(oracle, turns, &mut part.verdict, &mut part.verified);
                        part.kbs.push((id.to_string(), kb));
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session check thread panicked"))
            .collect()
    });
    let mut verified = BTreeMap::new();
    let mut kbs = BTreeMap::new();
    for part in parts {
        v.attempted += part.verdict.attempted;
        v.errors += part.verdict.errors;
        v.mismatches += part.verdict.mismatches;
        for f in part.verdict.failures {
            v.fail(f);
        }
        verified.extend(part.verified);
        kbs.extend(part.kbs);
    }
    v.seal(verified);
    (v, kbs)
}

/// Threads the session check runs on.
const CHECK_THREADS: usize = 2;

/// One check thread's share: its verdict, its verified answers and its
/// sessions' reference KB JSON.
#[derive(Default)]
struct Part {
    verdict: Verdict,
    verified: Vec<(String, String)>,
    kbs: Vec<(String, String)>,
}

/// Checks one session's turns into `v`, pushing verified answers to
/// `verified`; returns the reference JSON of the session's final KB.
fn check_session<E: QueryEngine>(
    oracle: &Oracle<E>,
    turns: &[&Record],
    v: &mut Verdict,
    verified: &mut Vec<(String, String)>,
) -> String {
    let mut texts = Vec::new();
    let mut kb = OnTheFlyKb::new();
    for (seen, r) in (1..).zip(turns) {
        v.attempted += 1;
        let Op::Turn {
            session,
            turn,
            request,
        } = &r.op
        else {
            unreachable!("grouped by session");
        };
        let key = format!("{session}#{turn}:{}", op_key(request));
        // A turn opens the session KB when nothing was merged before it
        // (a first turn, or one after turns that retrieved nothing).
        let opens = kb.n_docs() == 0;
        texts.extend(oracle.docs(request));
        kb = oracle.session_kb(&texts);
        let reply = match &r.reply {
            Ok(reply) => reply,
            Err(e) => {
                v.errors += 1;
                v.fail(format!("{key}: {e}"));
                continue;
            }
        };
        if seen != *turn {
            v.errors += 1;
            v.fail(format!("{key}: turn issued out of order"));
            continue;
        }
        let state_ok = match reply.served {
            Served::SessionCold | Served::SessionForked => opens,
            Served::SessionExtended => !opens,
            _ => false,
        };
        if !state_ok {
            v.mismatches += 1;
            v.fail(format!(
                "{key}: unexpected session state {:?} (a reset if the session had documents)",
                reply.served
            ));
            continue;
        }
        let expected = oracle.session_turn(&kb, request);
        if matches(reply, &expected) {
            verified.push((key, expected.answers.join("\u{1f}")));
        } else {
            v.mismatches += 1;
            v.fail(mismatch(&key, reply, &expected));
        }
    }
    oracle.kb_json(&kb)
}

/// Checks recovered session KBs byte for byte against the references.
pub fn check_recovered(
    expected: &BTreeMap<String, String>,
    recovered: impl Fn(&str) -> Option<String>,
) -> Verdict {
    let mut v = Verdict::default();
    let mut verified = BTreeMap::new();
    for (id, json) in expected {
        v.attempted += 1;
        match recovered(id) {
            Some(got) if &got == json => {
                verified.insert(id.clone(), json.clone());
            }
            Some(_) => {
                v.mismatches += 1;
                v.fail(format!(
                    "session {id}: recovered KB differs from the reference"
                ));
            }
            None => {
                v.mismatches += 1;
                v.fail(format!("session {id}: missing after recovery"));
            }
        }
    }
    v.seal(verified);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{drive, OpSource};
    use crate::setup;
    use qkb_corpus::world::WorldConfig;
    use qkb_net::{NetConfig, QkbNetServer};
    use qkb_qa::QaSystem;
    use std::time::{Duration, Instant};

    /// The production engine, except that one request's answers are
    /// perturbed.
    struct Perturbed {
        inner: Arc<QaSystem>,
        victim: QueryRequest,
    }

    impl QueryEngine for Perturbed {
        fn qkbfly(&self) -> &Qkbfly {
            self.inner.qkbfly()
        }
        fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
            self.inner.retrieve_docs(&request.text)
        }
        fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
            self.inner.doc_texts(doc_ids)
        }
        fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
            let mut answers = self.inner.answer_kb(request, kb);
            if *request == self.victim {
                answers.push("perturbed".into());
            }
            answers
        }
    }

    fn serve<E: QueryEngine>(engine: E, ops: Vec<Op>) -> Vec<Record> {
        let server = QkbNetServer::start(engine, NetConfig::default()).expect("server starts");
        let mut ops = ops.into_iter();
        let source: OpSource = Box::new(move || ops.next());
        let deadline = Instant::now() + Duration::from_secs(600);
        drive(server.local_addr(), vec![source], deadline)
            .expect("phase runs")
            .records
    }

    fn small() -> setup::System {
        setup::load_with(WorldConfig::default(), 24, 12)
    }

    fn turn(session: &str, turn: u64, request: &QueryRequest) -> Op {
        Op::Turn {
            session: session.into(),
            turn,
            request: request.clone(),
        }
    }

    #[test]
    fn one_shot_check_flags_exactly_the_perturbed_answer() {
        let system = small();
        let requests: Vec<QueryRequest> = system.requests.iter().take(6).cloned().collect();
        let victim = requests[2].clone();
        let ops: Vec<Op> = requests.iter().cloned().map(Op::Query).collect();
        let oracle = Oracle::new(Arc::clone(&system.sys));

        let honest = serve(Arc::clone(&system.sys), ops.clone());
        let v = check_one_shots(&oracle, &honest);
        assert_eq!((v.attempted, v.failed()), (6, 0), "{:?}", v.failures);

        let perturbed = Perturbed {
            inner: Arc::clone(&system.sys),
            victim: victim.clone(),
        };
        let v = check_one_shots(&oracle, &serve(perturbed, ops));
        assert_eq!((v.attempted, v.mismatches, v.errors), (6, 1, 0));
        assert!(v.failures[0].contains(&victim.text), "{:?}", v.failures);
    }

    #[test]
    fn session_check_flags_the_perturbed_turn_and_recovery_check_bites() {
        let system = small();
        let r = &system.requests;
        let victim = r[4].clone();
        let ops = vec![
            turn("a", 1, &r[0]),
            turn("a", 2, &r[1]),
            turn("b", 1, &r[0]),
            turn("b", 2, &victim),
            turn("b", 3, &r[5]),
        ];
        let oracle = Oracle::new(Arc::clone(&system.sys));

        let (v, kbs) = check_sessions(&oracle, &serve(Arc::clone(&system.sys), ops.clone()));
        assert_eq!((v.attempted, v.failed()), (5, 0), "{:?}", v.failures);
        assert_eq!(kbs.len(), 2);

        let perturbed = Perturbed {
            inner: Arc::clone(&system.sys),
            victim,
        };
        let (v, _) = check_sessions(&oracle, &serve(perturbed, ops));
        assert_eq!((v.attempted, v.mismatches, v.errors), (5, 1, 0));
        assert!(v.failures[0].starts_with("b#2:"), "{:?}", v.failures);

        // Recovered KBs must match byte for byte.
        let ok = check_recovered(&kbs, |id| kbs.get(id).cloned());
        assert_eq!(ok.failed(), 0);
        let bad = check_recovered(&kbs, |id| {
            kbs.get(id).map(|j| {
                if id == "b" {
                    format!("{j} ")
                } else {
                    j.clone()
                }
            })
        });
        assert_eq!((bad.attempted, bad.mismatches), (2, 1));
        let missing = check_recovered(&kbs, |_| None);
        assert_eq!(missing.mismatches, 2);
    }
}
