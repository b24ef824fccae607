//! The three workloads and the seeded request streams they issue.
//!
//! Every workload runs against the paper-scale world
//! (`ExperimentSpec::default_paper`); the `--seed` drives only the
//! request stream: which user issues, which query text, which intent
//! city, and (through a second simulator) which results get clicked.

use pws_click::session::SimConfig;
use pws_click::{SessionSimulator, UserId};
use pws_corpus::query::QueryClass;
use pws_corpus::{QueryId, TopicId, Topics};
use pws_eval::ExperimentWorld;
use pws_geo::LocId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One workload: the traffic shape and the serving configuration it needs.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Engine users the stream draws from.
    pub users: u32,
    /// Zipf exponent of the user draw: user `k` (0-based) issues with
    /// weight `1/(k+1)^user_skew`, the form `pws-corpus` tilts its topic
    /// distribution with; 0 draws users uniformly.
    pub user_skew: f64,
    /// Compose query texts that never repeat (otherwise the paper's
    /// templates, so texts repeat and the caches are used).
    pub distinct_queries: bool,
    /// Serve through the store tier on the real filesystem.
    pub store: bool,
    /// Closed-loop turns per second on a quiet host, measured when the
    /// benchmark was written; sizes the closed-loop phase.
    pub turn_rate: f64,
    /// Open-loop arrival rate in searches per second (each search is
    /// followed by its observe). A fixed number, about a fifth of
    /// `turn_rate`, so the dispatcher stays far from the knee even when
    /// the host runs at two thirds of its quiet speed; never derived from
    /// the current run.
    pub open_rate: f64,
}

/// Resident users per shard on `store_churn` (8 shards).
pub const STORE_RESIDENT_PER_SHARD: usize = 16;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "warm_repeat",
        users: 60,
        user_skew: 0.0,
        distinct_queries: false,
        store: false,
        turn_rate: 250.0,
        open_rate: 50.0,
    },
    Workload {
        name: "cold_tail",
        users: 60,
        user_skew: 0.0,
        distinct_queries: true,
        store: false,
        turn_rate: 185.0,
        open_rate: 50.0,
    },
    Workload {
        name: "store_churn",
        users: 20_000,
        // Fitted to the store and memo behaviour the workload is meant
        // to show; see README.md.
        user_skew: 0.35,
        distinct_queries: false,
        store: true,
        turn_rate: 500.0,
        open_rate: 100.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request of the stream.
#[derive(Debug, Clone)]
pub struct Request {
    /// The engine user issuing it.
    pub user: UserId,
    /// The simulated population member whose tastes drive the query and
    /// the clicks (engine users beyond the population map onto it).
    pub sim_user: UserId,
    /// The query template the clicks are graded against.
    pub query: QueryId,
    pub intent: LocId,
    pub text: String,
}

/// Salt that separates the click simulator's RNG from the query sampler's.
const CLICK_SALT: u64 = 0xC1C4_5EED_0000_0001;
/// Salt for the stream's own choices (user, composed terms).
const STREAM_SALT: u64 = 0x57AE_A400_0000_0002;

/// The seeded request stream of one workload.
pub struct Stream<'w> {
    spec: &'static Workload,
    world: &'w ExperimentWorld,
    sampler: SessionSimulator<'w>,
    rng: StdRng,
    topics: Topics,
    /// Cumulative draw weights of the users (empty: uniform).
    user_cdf: Vec<f64>,
    seen: HashSet<Vec<String>>,
}

impl<'w> Stream<'w> {
    pub fn new(spec: &'static Workload, world: &'w ExperimentWorld, seed: u64) -> Self {
        Stream {
            spec,
            world,
            sampler: simulator(world, seed),
            rng: StdRng::seed_from_u64(seed ^ STREAM_SALT),
            topics: Topics::first(world.spec.corpus.num_topics),
            user_cdf: zipf_cdf(spec.users, spec.user_skew),
            seen: HashSet::new(),
        }
    }

    pub fn next_request(&mut self) -> Request {
        let user = if self.user_cdf.is_empty() {
            self.rng.gen_range(0..self.spec.users)
        } else {
            let u: f64 = self.rng.gen();
            (self.user_cdf.partition_point(|c| *c < u) as u32).min(self.spec.users - 1)
        };
        let sim_user = UserId(user % self.world.population.len() as u32);
        let query = self.sampler.sample_query(sim_user);
        let intent = self.sampler.sample_intent_city(sim_user);
        let template = &self.world.queries[query.index()];
        let text = if self.spec.distinct_queries {
            // A city exactly when the paper's template names one, so
            // the share of city queries is the world's own.
            let city = (template.class == QueryClass::ExplicitLocation)
                .then(|| self.world.world.name(intent).to_string());
            self.compose_unseen(template.topic, city)
        } else {
            self.sampler.render_query(template, intent)
        };
        Request { user: UserId(user), sim_user, query, intent, text }
    }

    /// Two terms of the template's topic, one of another topic, and the
    /// city if one is given, in a combination the stream has not issued
    /// yet.
    fn compose_unseen(&mut self, topic: TopicId, city: Option<String>) -> String {
        let n_topics = self.topics.len() as u16;
        loop {
            let own = self.topics.terms(topic);
            let a = self.rng.gen_range(0..own.len());
            let mut b = self.rng.gen_range(0..own.len() - 1);
            if b >= a {
                b += 1;
            }
            let other = TopicId((topic.0 + self.rng.gen_range(1..n_topics)) % n_topics);
            let others = self.topics.terms(other);
            let c = self.rng.gen_range(0..others.len());
            let mut words = vec![own[a].clone(), own[b].clone(), others[c].clone()];
            words.extend(city.clone());
            let mut key = words.clone();
            key.sort();
            if self.seen.insert(key) {
                return words.join(" ");
            }
        }
    }
}

/// Cumulative Zipf weights `1/(k+1)^skew` over `n` users, normalised to
/// end at 1; empty when `skew` is 0 (uniform draw).
fn zipf_cdf(n: u32, skew: f64) -> Vec<f64> {
    if skew == 0.0 {
        return Vec::new();
    }
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(skew);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The click side of the load generator: grades and clicks the served
/// page with `SessionSimulator::issue_on_hits`.
pub fn click_simulator(world: &ExperimentWorld, seed: u64) -> SessionSimulator<'_> {
    simulator(world, seed ^ CLICK_SALT)
}

fn simulator(world: &ExperimentWorld, seed: u64) -> SessionSimulator<'_> {
    SessionSimulator::new(
        &world.engine,
        &world.corpus,
        &world.world,
        &world.population,
        &world.queries,
        SimConfig { top_k: 10, seed },
    )
}
