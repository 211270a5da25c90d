//! Per-layer breakdown of a traced phase from the spans the program
//! emits (plus the benchmark's own `bench_*` wrapper spans).
//!
//! Every served request is one span tree rooted at `net_request`. A
//! span's self time is its duration minus its children's, and each span
//! name maps to one layer, so a request's layer self times add up to its
//! `net_request` time. Three layers are catch-alls rather than layers of
//! the request path: `serve.schedule` (what the `request` span's
//! children and batch wait leave over), `other` (spans no layer claims,
//! and a root with no `request` child, whose server work went untraced)
//! and `wire` (what the client saw beyond the root span: loopback TCP,
//! frame I/O outside the root, thread hand-off). Coverage counts only
//! the named layers; the catch-alls are the unexplained remainder.

use crate::load::median;
use qkb_obs::SpanRecord;
use qkb_util::FxHashMap;
use std::collections::BTreeMap;

/// The layer a span's self time belongs to. `net_request` is `net.frame`
/// only when it has a `request` child (see [`breakdown`]).
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "net_request" => "net.frame",
        "admission_wait" => "net.admission",
        "request" => "serve.schedule",
        "fragment_lookup" => "serve.fragment_lookup",
        "grouped_build" | "solo_build" => "serve.build",
        "stage1_doc" => "serve.stage1_cache",
        "build_kb" | "build_kb_grouped" | "extend_kb" | "stream_into_kb" => "core.assemble",
        "stage1" | "preprocess" | "graph" | "resolve" | "resolve_component" => "core.stage1",
        "canonicalize" | "canon_decide" | "canon_apply" => "core.canon",
        "answer" | "bench_answer_kb" => "qa.answer",
        "bench_retrieve" => "qa.retrieve",
        "bench_doc_texts" | "bench_doc_fingerprint" => "qa.docs",
        "session_turn" => "session.turn",
        "session_fork" | "session_extend" | "prefix_freeze" => "session.forest",
        "bench_journal_append" => "net.journal",
        _ => "other",
    }
}

/// The batch wait: the part of a `request` span's own time between the
/// end of its admission wait and the end of its last own span. There
/// the shard serves the other jobs of the same batch (their lookups, the
/// grouped build that hangs off the batch's first request, their
/// answers) or waits for a coalesced leader's build.
pub const BATCH_WAIT: &str = "serve.batch_wait";

/// Layers that hold leftover time, not a layer of the request path;
/// coverage counts them as unexplained. `wire` is no span layer: it is
/// the client latency beyond the root span.
pub const CATCH_ALL: [&str; 3] = ["serve.schedule", "other", "wire"];

/// Span-derived layers in report order: the named layers, then the
/// catch-alls.
pub const LAYERS: [&str; 18] = [
    "net.frame",
    "net.admission",
    BATCH_WAIT,
    "serve.fragment_lookup",
    "serve.build",
    "serve.stage1_cache",
    "core.assemble",
    "core.stage1",
    "core.canon",
    "qa.retrieve",
    "qa.docs",
    "qa.answer",
    "session.turn",
    "session.forest",
    "net.journal",
    "serve.schedule",
    "other",
    "wire",
];

fn is_named(layer: &str) -> bool {
    !CATCH_ALL.contains(&layer)
}

/// The span-derived view of one traced phase.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Requests (rooted `net_request` trees) seen.
    pub requests: usize,
    /// Mean self time per request of each layer, ms.
    pub layer_mean_ms: BTreeMap<&'static str, f64>,
    /// Median of the per-request sum of named-layer self times, ms.
    pub explained_p50_ms: f64,
    /// Median root (`net_request`) span, ms.
    pub root_p50_ms: f64,
    /// Mean client latency minus mean named-layer time, ms.
    pub unexplained_mean_ms: f64,
    /// Per span name: every span's duration (ms).
    pub durations_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per request: `net_request` minus `request`, ms.
    pub frame_ms: Vec<f64>,
}

impl Breakdown {
    /// p50 of a span name's durations (0 when absent).
    pub fn p50(&self, span: &str) -> f64 {
        self.durations_ms.get(span).map_or(0.0, |d| median(d))
    }
}

fn end_us(r: &SpanRecord) -> u64 {
    r.start_us + r.dur_us
}

/// The batch wait within a `request` span's self time, given its
/// children.
fn batch_wait_us(children: &[&SpanRecord], self_us: u64) -> u64 {
    let Some(admitted) = children
        .iter()
        .find(|c| c.name == "admission_wait")
        .map(|c| end_us(c))
    else {
        return 0;
    };
    let work = children.iter().filter(|c| c.name != "admission_wait");
    let Some(done) = work.clone().map(|c| end_us(c)).max() else {
        return 0;
    };
    let busy: u64 = work.map(|c| c.dur_us).sum();
    done.saturating_sub(admitted)
        .saturating_sub(busy)
        .min(self_us)
}

/// Builds the breakdown from a flight recorder's spans and the client
/// latencies of the same phase (used for the unexplained remainder).
pub fn breakdown(records: &[SpanRecord], client_latency_ms: &[f64]) -> Breakdown {
    let records: Vec<&SpanRecord> = records.iter().filter(|r| !r.instant).collect();
    let mut children: FxHashMap<u64, Vec<&SpanRecord>> = FxHashMap::default();
    for r in &records {
        if r.parent != 0 {
            children.entry(r.parent).or_default().push(r);
        }
    }
    let roots: FxHashMap<u64, &SpanRecord> = records
        .iter()
        .filter(|r| r.parent == 0 && r.name == "net_request")
        .map(|r| (r.trace, *r))
        .collect();

    let mut b = Breakdown {
        requests: roots.len(),
        ..Breakdown::default()
    };
    // Per request trace: self time per layer.
    let mut per_trace_layer: FxHashMap<u64, FxHashMap<&'static str, u64>> = FxHashMap::default();
    for r in &records {
        b.durations_ms
            .entry(r.name)
            .or_default()
            .push(r.dur_us as f64 / 1e3);
        if !roots.contains_key(&r.trace) {
            continue;
        }
        let kids = children.get(&r.id).map_or(&[][..], Vec::as_slice);
        let self_us = r
            .dur_us
            .saturating_sub(kids.iter().map(|c| c.dur_us).sum::<u64>());
        let layers = per_trace_layer.entry(r.trace).or_default();
        let mut add = |layer, us| *layers.entry(layer).or_default() += us;
        match r.name {
            "net_request" if kids.iter().any(|c| c.name == "request") => {
                b.frame_ms.push(self_us as f64 / 1e3);
                add("net.frame", self_us);
            }
            "net_request" => add("other", self_us),
            "request" => {
                let wait = batch_wait_us(kids, self_us);
                add(BATCH_WAIT, wait);
                add("serve.schedule", self_us - wait);
            }
            name => add(layer_of(name), self_us),
        }
    }

    let n = b.requests.max(1) as f64;
    let mut explained = Vec::with_capacity(b.requests);
    for layers in per_trace_layer.values() {
        let named: u64 = layers
            .iter()
            .filter(|(l, _)| is_named(l))
            .map(|(_, us)| us)
            .sum();
        explained.push(named as f64 / 1e3);
        for (&layer, &us) in layers {
            *b.layer_mean_ms.entry(layer).or_default() += us as f64 / 1e3 / n;
        }
    }
    b.explained_p50_ms = median(&explained);
    let roots_ms: Vec<f64> = roots.values().map(|r| r.dur_us as f64 / 1e3).collect();
    b.root_p50_ms = median(&roots_ms);
    let client_mean = client_latency_ms.iter().sum::<f64>() / client_latency_ms.len().max(1) as f64;
    let root_mean = roots_ms.iter().sum::<f64>() / n;
    b.layer_mean_ms
        .insert("wire", (client_mean - root_mean).max(0.0));
    let named_mean: f64 = b
        .layer_mean_ms
        .iter()
        .filter(|(l, _)| is_named(l))
        .map(|(_, ms)| ms)
        .sum();
    b.unexplained_mean_ms = (client_mean - named_mean).max(0.0);
    b
}

/// `trace.coverage_p50`: the median request's named-layer self times as
/// a share of the median client-observed latency of the same phase.
pub fn coverage_p50(b: &Breakdown, client_latency_ms: &[f64]) -> f64 {
    share_of_p50(b.explained_p50_ms, client_latency_ms)
}

/// `trace.span_coverage_p50`: the median root span as a share of the
/// median client latency; what the span trees cover at all, catch-alls
/// included.
pub fn span_coverage_p50(b: &Breakdown, client_latency_ms: &[f64]) -> f64 {
    share_of_p50(b.root_p50_ms, client_latency_ms)
}

fn share_of_p50(ms: f64, client_latency_ms: &[f64]) -> f64 {
    let p50 = median(client_latency_ms);
    if p50 > 0.0 {
        ms / p50
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name,
            start_us,
            dur_us,
            thread: 0,
            instant: false,
            fields: Vec::new(),
        }
    }

    fn ms(b: &Breakdown, layer: &str) -> f64 {
        b.layer_mean_ms.get(layer).copied().unwrap_or(0.0)
    }

    #[test]
    fn named_layers_explain_and_catch_alls_do_not() {
        let records = vec![
            span(1, 1, 0, "net_request", 0, 1000),
            span(1, 2, 1, "request", 50, 900),
            span(1, 3, 2, "admission_wait", 50, 300),
            // 150 us of the shard's time between admission and the
            // last own span goes to the rest of the batch.
            span(1, 4, 2, "fragment_lookup", 450, 100),
            span(1, 5, 2, "answer", 600, 200),
            // A span outside any request tree is counted by name only.
            span(9, 9, 0, "stage1", 0, 50),
        ];
        let b = breakdown(&records, &[1.2]);
        assert_eq!(b.requests, 1);
        assert!((ms(&b, "net.frame") - 0.1).abs() < 1e-9);
        assert!((ms(&b, "net.admission") - 0.3).abs() < 1e-9);
        assert!((ms(&b, BATCH_WAIT) - 0.15).abs() < 1e-9);
        assert!((ms(&b, "serve.schedule") - 0.15).abs() < 1e-9);
        assert!((ms(&b, "qa.answer") - 0.2).abs() < 1e-9);
        assert!((ms(&b, "wire") - 0.2).abs() < 1e-9);
        assert_eq!(ms(&b, "core.stage1"), 0.0);
        // frame + admission + batch wait + lookup + answer.
        assert!((b.explained_p50_ms - 0.85).abs() < 1e-9);
        // serve.schedule + wire.
        assert!((b.unexplained_mean_ms - 0.35).abs() < 1e-9);
        assert!((coverage_p50(&b, &[1.2]) - 0.85 / 1.2).abs() < 1e-9);
        assert!((span_coverage_p50(&b, &[1.2]) - 1.0 / 1.2).abs() < 1e-9);
        assert_eq!(b.durations_ms["stage1"], vec![0.05]);
        assert_eq!(b.frame_ms, vec![0.1]);
    }

    #[test]
    fn untraced_server_work_fails_the_coverage_target() {
        // The root alone: no request tree under it.
        let bare = breakdown(&[span(1, 1, 0, "net_request", 0, 1000)], &[1.05]);
        assert_eq!(coverage_p50(&bare, &[1.05]), 0.0);
        assert!((ms(&bare, "other") - 1.0).abs() < 1e-9);
        assert!(bare.frame_ms.is_empty());
        // A request span with nothing under it: its time is leftover.
        let records = vec![
            span(1, 1, 0, "net_request", 0, 1000),
            span(1, 2, 1, "request", 20, 950),
        ];
        let empty = breakdown(&records, &[1.05]);
        assert!(coverage_p50(&empty, &[1.05]) < crate::workloads::COVERAGE_TARGET);
        assert!((ms(&empty, "serve.schedule") - 0.95).abs() < 1e-9);
        assert_eq!(ms(&empty, BATCH_WAIT), 0.0);
        // Both still cover the same share with the catch-alls counted.
        assert!(span_coverage_p50(&empty, &[1.05]) > 0.9);
    }

    #[test]
    fn every_program_span_has_a_layer() {
        for name in [
            "net_request",
            "request",
            "admission_wait",
            "fragment_lookup",
            "grouped_build",
            "solo_build",
            "stage1_doc",
            "build_kb",
            "build_kb_grouped",
            "extend_kb",
            "stream_into_kb",
            "stage1",
            "preprocess",
            "graph",
            "resolve",
            "resolve_component",
            "canonicalize",
            "canon_decide",
            "canon_apply",
            "answer",
            "session_turn",
            "session_fork",
            "session_extend",
            "prefix_freeze",
        ] {
            assert_ne!(layer_of(name), "other", "{name}");
            assert!(LAYERS.contains(&layer_of(name)));
            assert!(is_named(layer_of(name)) || name == "request", "{name}");
        }
    }
}
