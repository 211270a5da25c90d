//! The loaded system the server answers from, and the request universe
//! the workloads draw on. Everything here is fixed: the run seed only
//! orders and samples these requests.

use qkb_corpus::world::{World, WorldConfig};
use qkb_kb::{EntityRepository, PatternRepository};
use qkb_qa::QaSystem;
use qkb_serve::QueryRequest;
use qkbfly::Qkbfly;
use std::sync::Arc;

/// Searchable corpus: entity pages and news articles.
pub const WIKI_DOCS: usize = 2000;
pub const NEWS_DOCS: usize = 1000;
/// Pages behind the background statistics.
const BACKGROUND_PAGES: usize = 120;

/// The generated world, the QA engine over it, and every distinct
/// request the standard question generators and entity names yield.
pub struct System {
    pub sys: Arc<QaSystem>,
    /// Distinct requests: questions first, then entity seeds, each group
    /// sorted by text.
    pub requests: Vec<QueryRequest>,
    /// How many of `requests` are entity seeds (the tail of the list).
    pub entity_seeds: usize,
}

/// Builds the world, background statistics, corpus and BM25 index with
/// the engine's shipped defaults (`QaSystem::top_k` included).
pub fn load() -> System {
    load_with(WorldConfig::standard(), WIKI_DOCS, NEWS_DOCS)
}

/// [`load`] over another world and corpus size (the self-tests use a
/// small one).
pub fn load_with(config: WorldConfig, wiki_docs: usize, news_docs: usize) -> System {
    let world = Arc::new(World::generate(config));
    let background = qkb_corpus::background::background_corpus(&world, BACKGROUND_PAGES, 777);
    let stats = qkb_corpus::background::build_stats(&world, &background);
    let mut repo = EntityRepository::new();
    for e in world.repo.iter() {
        let aliases: Vec<&str> = e.aliases.iter().map(String::as_str).collect();
        repo.add_entity(&e.canonical, &aliases, e.gender, e.types.clone());
    }
    let mut patterns = PatternRepository::standard();
    qkb_corpus::render::extend_patterns(&mut patterns);
    let qkb = Qkbfly::new(repo, patterns, stats);

    let mut docs = qkb_corpus::docgen::wiki_corpus(&world, wiki_docs, 31).docs;
    docs.extend(qkb_corpus::docgen::news_corpus(&world, news_docs, 32).docs);
    let sys = Arc::new(QaSystem::new(world.clone(), docs, qkb));

    // Ask for far more questions than the world has facts for: the
    // generators stop at what the world supports.
    let mut questions: Vec<String> = qkb_corpus::questions::trends_test(&world, 100_000, 35)
        .into_iter()
        .chain(qkb_corpus::questions::webquestions_train(
            &world, 100_000, 36,
        ))
        .map(|q| q.text)
        .collect();
    questions.sort();
    questions.dedup();
    let mut entities: Vec<String> = world.repo.iter().map(|e| e.canonical.clone()).collect();
    entities.sort();
    entities.dedup();
    let entity_seeds = entities.len();
    let requests = questions
        .into_iter()
        .map(QueryRequest::question)
        .chain(entities.into_iter().map(QueryRequest::entity))
        .collect();
    System {
        sys,
        requests,
        entity_seeds,
    }
}

impl System {
    pub fn corpus_docs(&self) -> usize {
        self.sys.n_docs()
    }

    /// The entity-seed requests.
    pub fn entities(&self) -> &[QueryRequest] {
        &self.requests[self.requests.len() - self.entity_seeds..]
    }
}
