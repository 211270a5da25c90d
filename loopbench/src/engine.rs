//! Benchmark-side wrappers that time the program's layers from outside:
//! a [`QueryEngine`] that delegates to the production engine and times
//! retrieval, document lookup and answering, and a [`TurnLog`] that
//! delegates to the session journal and times appends.
//!
//! When the calling thread is inside a traced request (the server opened
//! a span that is still live, as on the session path), the wrapper also
//! records a `bench_*` span so its time nests under that request's tree.

use qkb_kb::OnTheFlyKb;
use qkb_obs::Recorder;
use qkb_serve::{LoggedTurn, QueryEngine, QueryRequest, TurnLog};
use qkbfly::Qkbfly;
use std::sync::Mutex;
use std::time::Instant;

/// Durations of one wrapped call site, in milliseconds.
#[derive(Default)]
pub struct Samples(Mutex<Vec<f64>>);

impl Samples {
    fn push(&self, ms: f64) {
        self.0.lock().expect("sample sink poisoned").push(ms);
    }

    pub fn snapshot(&self) -> Vec<f64> {
        self.0.lock().expect("sample sink poisoned").clone()
    }

    pub fn clear(&self) {
        self.0.lock().expect("sample sink poisoned").clear();
    }
}

fn timed<T>(
    recorder: &Recorder,
    name: &'static str,
    samples: &Samples,
    f: impl FnOnce() -> T,
) -> T {
    let span = (!recorder.current().is_none()).then(|| recorder.span(name));
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e3);
    drop(span);
    out
}

/// Times every engine call, delegating to `inner`.
pub struct TimedEngine<E> {
    inner: E,
    recorder: Recorder,
    pub retrieve: Samples,
    pub doc_fingerprint: Samples,
    pub doc_texts: Samples,
    pub answer: Samples,
}

impl<E> TimedEngine<E> {
    pub fn new(inner: E, recorder: Recorder) -> Self {
        Self {
            inner,
            recorder,
            retrieve: Samples::default(),
            doc_fingerprint: Samples::default(),
            doc_texts: Samples::default(),
            answer: Samples::default(),
        }
    }

    pub fn clear(&self) {
        for s in [
            &self.retrieve,
            &self.doc_fingerprint,
            &self.doc_texts,
            &self.answer,
        ] {
            s.clear();
        }
    }
}

impl<E: QueryEngine> QueryEngine for TimedEngine<E> {
    fn qkbfly(&self) -> &Qkbfly {
        self.inner.qkbfly()
    }

    fn retrieve(&self, request: &QueryRequest) -> Vec<usize> {
        timed(&self.recorder, "bench_retrieve", &self.retrieve, || {
            self.inner.retrieve(request)
        })
    }

    fn doc_texts(&self, doc_ids: &[usize]) -> Vec<String> {
        timed(&self.recorder, "bench_doc_texts", &self.doc_texts, || {
            self.inner.doc_texts(doc_ids)
        })
    }

    fn doc_fingerprint(&self, doc_ids: &[usize]) -> u64 {
        timed(
            &self.recorder,
            "bench_doc_fingerprint",
            &self.doc_fingerprint,
            || self.inner.doc_fingerprint(doc_ids),
        )
    }

    // `answer` keeps the trait's default, which calls this method, so
    // the fragment path is timed here too.
    fn answer_kb(&self, request: &QueryRequest, kb: &OnTheFlyKb) -> Vec<String> {
        timed(&self.recorder, "bench_answer_kb", &self.answer, || {
            self.inner.answer_kb(request, kb)
        })
    }
}

/// Times every journal append, delegating to `inner`.
pub struct TimedTurnLog<L> {
    inner: L,
    recorder: Recorder,
    pub appends: Samples,
}

impl<L> TimedTurnLog<L> {
    pub fn new(inner: L, recorder: Recorder) -> Self {
        Self {
            inner,
            recorder,
            appends: Samples::default(),
        }
    }

    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: TurnLog> TurnLog for TimedTurnLog<L> {
    fn log_turn(&self, turn: &LoggedTurn<'_>) {
        timed(
            &self.recorder,
            "bench_journal_append",
            &self.appends,
            || self.inner.log_turn(turn),
        );
    }
}
