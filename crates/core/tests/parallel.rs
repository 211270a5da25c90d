//! Parallel determinism: `build_kb` must produce a byte-identical
//! canonicalized KB for every `parallelism` setting — the per-document
//! phase fans out across workers, but the merge phase folds outputs in
//! document order with stable tie-breaking.

use qkb_corpus::world::{World, WorldConfig};
use qkbfly::{BuildResult, MemoryResolveCache, Qkbfly, QkbflyConfig, SolverKind, Variant};
use std::collections::HashSet;
use std::sync::Arc;

fn system(world: &World, parallelism: usize) -> Qkbfly {
    let bg = qkb_corpus::background::background_corpus(world, 10, 5);
    let stats = qkb_corpus::background::build_stats(world, &bg);
    let mut repo = qkb_kb::EntityRepository::new();
    for e in world.repo.iter() {
        let aliases: Vec<&str> = e.aliases.iter().map(String::as_str).collect();
        repo.add_entity(&e.canonical, &aliases, e.gender, e.types.clone());
    }
    let mut patterns = qkb_kb::PatternRepository::standard();
    qkb_corpus::render::extend_patterns(&mut patterns);
    Qkbfly::with_config(
        repo,
        patterns,
        stats,
        QkbflyConfig {
            variant: Variant::Joint,
            solver: SolverKind::Greedy,
            parallelism,
            ..Default::default()
        },
    )
}

fn batch(world: &World, n_docs: usize) -> Vec<String> {
    let corpus = qkb_corpus::docgen::wiki_corpus(world, n_docs, 4242);
    corpus.docs.iter().map(|d| d.text.clone()).collect()
}

/// Full observable state of a build result, rendered to a stable string:
/// canonicalized facts + entity clusters (the KB JSON), extraction
/// records, and link records.
fn fingerprint(sys: &Qkbfly, result: &BuildResult<'_>) -> String {
    let mut s = String::new();
    s.push_str(&result.kb.to_json(sys.patterns()).to_string());
    s.push('\n');
    for r in &result.records {
        s.push_str(&format!(
            "record doc={} kept={} slots={:?} {:?}\n",
            r.doc, r.kept, r.slot_entities, r.extraction
        ));
    }
    for l in &result.links {
        s.push_str(&format!(
            "link doc={} sent={} phrase={:?} entity={:?} conf={:.6}\n",
            l.doc, l.sentence, l.phrase, l.entity, l.confidence
        ));
    }
    s
}

#[test]
fn parallelism_does_not_change_the_kb() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 12);
    assert!(docs.len() >= 8, "need a real batch, got {}", docs.len());

    let serial_sys = system(&world, 1);
    let serial = serial_sys.build_kb(&docs);
    let serial_fp = fingerprint(&serial_sys, &serial);
    assert!(serial.kb.n_facts() > 0, "fixture must yield facts");

    for parallelism in [2, 8] {
        let sys = system(&world, parallelism);
        let result = sys.build_kb(&docs);
        let fp = fingerprint(&sys, &result);
        assert_eq!(
            serial_fp, fp,
            "parallelism={parallelism} diverged from the serial build"
        );
        assert_eq!(serial.kb.n_facts(), result.kb.n_facts());
        assert_eq!(serial.kb.n_entities(), result.kb.n_entities());
        assert_eq!(serial.per_doc.len(), result.per_doc.len());
    }
}

/// Resolve-stage determinism: component decomposition (with candidate
/// pruning and warm start on the ILP path, lazy rescoring on the greedy
/// path) must leave the full observable build state byte-identical to
/// the monolithic resolve, for both solvers.
#[test]
fn decomposed_resolve_is_byte_identical() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 8);
    for solver in [SolverKind::Greedy, SolverKind::Ilp] {
        let mono_sys = system(&world, 1).with_config_override(|c| {
            c.solver = solver;
            c.resolve_decomposition = false;
        });
        let mono = mono_sys.build_kb(&docs);
        let mono_fp = fingerprint(&mono_sys, &mono);
        assert!(mono.kb.n_facts() > 0, "fixture must yield facts");

        let sys = system(&world, 1).with_config_override(|c| {
            c.solver = solver;
            c.resolve_decomposition = true;
        });
        let result = sys.build_kb(&docs);
        assert_eq!(
            fingerprint(&sys, &result),
            mono_fp,
            "solver={solver:?}: decomposed resolve diverged from the monolithic resolve"
        );
    }
}

/// The component resolve cache is invisible in the output: with the
/// cache attached, a build — including a second build whose documents
/// overlap the first, so cached components genuinely *replay* — is
/// byte-identical to the cache-free build for both solvers. A cached assignment is definitionally the
/// assignment the solver would produce.
#[test]
fn component_cache_does_not_change_the_kb() {
    let world = World::generate(WorldConfig::default());
    let first = batch(&world, 8);
    // Fresh documents sharing a prefix with the first batch: the shared
    // documents' components must come back as cache hits.
    let mut second: Vec<String> = first[2..].to_vec();
    second.extend(
        qkb_corpus::docgen::news_corpus(&world, 4, 9)
            .docs
            .iter()
            .map(|d| d.text.clone()),
    );

    for solver in [SolverKind::Greedy, SolverKind::Ilp] {
        let base_sys = system(&world, 1).with_config_override(|c| {
            c.solver = solver;
            c.resolve_decomposition = true;
        });
        let fp_first = fingerprint(&base_sys, &base_sys.build_kb(&first));
        let fp_second = fingerprint(&base_sys, &base_sys.build_kb(&second));

        let cache = Arc::new(MemoryResolveCache::new());
        let cached_sys = base_sys.with_resolve_cache(cache.clone());
        assert_eq!(
            fingerprint(&cached_sys, &cached_sys.build_kb(&first)),
            fp_first,
            "solver={solver:?}: cold cached build diverged"
        );
        let hits_cold = cache.hits();
        assert_eq!(
            fingerprint(&cached_sys, &cached_sys.build_kb(&second)),
            fp_second,
            "solver={solver:?}: warm cached build diverged"
        );
        assert!(
            cache.hits() > hits_cold,
            "solver={solver:?}: the overlapping batch must replay cached components"
        );
        assert_eq!(cache.rejects(), 0, "no collisions expected in the fixture");
    }
}

/// Builds `docs` against a fresh key-observing cache and returns the set
/// of component fingerprint keys the build stored.
fn component_keys(sys: &Qkbfly, docs: &[String]) -> HashSet<u64> {
    let cache = Arc::new(MemoryResolveCache::new());
    let _ = sys.with_resolve_cache(cache.clone()).build_kb(docs);
    cache.keys().into_iter().collect()
}

/// Component fingerprints are position-independent (prepending unrelated
/// sentences shifts every sentence index and node id of the original
/// text but leaves its components' keys unchanged) and order-independent
/// (swapping two uncoupled sentences permutes mention order and node
/// ids but yields the same key set).
#[test]
fn component_fingerprints_ignore_offsets_and_uncoupled_order() {
    let world = World::generate(WorldConfig::default());
    let sys = system(&world, 1);
    let names: Vec<String> = world
        .repo
        .iter()
        .take(2)
        .map(|e| e.canonical.clone())
        .collect();
    let (a, b) = (&names[0], &names[1]);

    let sent_a = format!("{a} visited the northern village.");
    let sent_b = format!("{b} opened a small workshop.");
    let filler = "The morning stayed quiet. Harvest season began early.";

    let base = component_keys(&sys, std::slice::from_ref(&sent_a));
    assert!(
        !base.is_empty(),
        "fixture must produce cacheable components"
    );
    let shifted = component_keys(&sys, &[format!("{filler} {sent_a}")]);
    assert!(
        base.is_subset(&shifted),
        "prepending filler sentences must not perturb the original \
         components' keys: {base:?} vs {shifted:?}"
    );

    let ab = component_keys(&sys, &[format!("{sent_a} {sent_b}")]);
    let ba = component_keys(&sys, &[format!("{sent_b} {sent_a}")]);
    assert_eq!(
        ab, ba,
        "reordering uncoupled mentions must not change the key set"
    );
    assert!(
        ab.is_superset(&base),
        "the A component survives composition"
    );
}

/// Collision safety: deliberately poisoning a cache entry (storing a
/// different component's payload under a key) is detected by the exact
/// structural re-check — the entry is rejected, the component re-solved,
/// and the KB stays byte-identical.
#[test]
fn poisoned_cache_entry_is_rejected_not_replayed() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 6);
    let sys = system(&world, 1);
    let clean_fp = fingerprint(&sys, &sys.build_kb(&docs));

    let cache = Arc::new(MemoryResolveCache::new());
    let cached_sys = sys.with_resolve_cache(cache.clone());
    let _ = cached_sys.build_kb(&docs);
    let keys = cache.keys();
    assert!(keys.len() >= 2, "need two components to cross-poison");
    assert!(
        cache.poison_with(keys[0], keys[1]),
        "both keys must be resident"
    );

    let poisoned_fp = fingerprint(&cached_sys, &cached_sys.build_kb(&docs));
    assert!(
        cache.rejects() >= 1,
        "the re-check must reject the poisoned entry"
    );
    assert_eq!(
        poisoned_fp, clean_fp,
        "a rejected entry must be re-solved, never replayed"
    );
}

#[test]
fn parallelism_zero_resolves_to_available_cores() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 4);
    let auto_sys = system(&world, 0);
    let serial_sys = system(&world, 1);
    let auto_fp = fingerprint(&auto_sys, &auto_sys.build_kb(&docs));
    let serial_fp = fingerprint(&serial_sys, &serial_sys.build_kb(&docs));
    assert_eq!(auto_fp, serial_fp);
}

#[test]
fn cloned_handles_share_repositories() {
    let world = World::generate(WorldConfig::default());
    let docs = batch(&world, 3);
    let sys = system(&world, 2);
    let handle = sys.clone();
    // Handles are independently usable (e.g. one per request thread) and
    // agree exactly.
    let a = fingerprint(&sys, &sys.build_kb(&docs));
    let b = fingerprint(&handle, &handle.build_kb(&docs));
    assert_eq!(a, b);
    // The clone shares the repositories rather than copying them.
    assert!(std::ptr::eq(sys.repo(), handle.repo()));
    assert!(std::ptr::eq(sys.patterns(), handle.patterns()));
    assert!(std::ptr::eq(sys.stats(), handle.stats()));
}
