//! `read_mix`: the read mix of `pr6_loadgen` on an in-memory store built
//! from the default corpus — four distinct structured queries, a keyword
//! search with translated candidates, an explain and Stats at 4:2:1:1.
//! The queries repeat, so the query cache answers almost all of them.

use crate::counting::IoCounters;
use crate::inproc::{hits_payload, rows_payload};
use crate::load::{Kind, OpGen, Planned, Rng, CLIENTS};
use crate::node::{measured, traced_node};
use crate::report::Report;
use crate::workload::{end_to_end, repeated_setup, Memory};
use crate::Args;
use quarry_core::{Quarry, QuarryConfig};
use quarry_corpus::{Corpus, CorpusConfig};
use quarry_query::engine::{AggFn, Predicate, Query};
use quarry_serve::protocol::{Payload, Request};
use quarry_serve::{Client, ServeConfig, Server};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Set-ups per run (each is cheap and noisy: a corpus and a pipeline
/// run); `setup_s` is their median.
const SETUPS: usize = 9;
const PIPELINE: &str = r#"
PIPELINE cities FROM corpus
EXTRACT infobox, rules
WHERE attribute IN ("name", "state", "population", "founded")
RESOLVE BY name
STORE INTO cities KEY name
"#;

/// The keyword search; its translation yields candidate queries.
const KEYWORD: &str = "population Madison";
const TOP_K: usize = 5;
/// The query that is explained.
const EXPLAINED: usize = 1;

fn queries() -> Vec<Query> {
    vec![
        Query::scan("cities").aggregate(None, AggFn::Count, "name"),
        Query::scan("cities")
            .filter(vec![Predicate::Eq("state".into(), "Wisconsin".into())])
            .project(&["name", "population"]),
        Query::scan("cities").sort("population", true, Some(10)).project(&["name"]),
        Query::scan("cities").aggregate(Some("state"), AggFn::Max, "population"),
    ]
}

/// Every distinct request of the mix with its in-process answer, in
/// the order queries, keyword search, explain, Stats. Stats is checked
/// for shape only: its counters move with every request.
struct Catalogue {
    requests: Vec<(Request, Option<Payload>)>,
}

impl Catalogue {
    /// Whether `payload` answers request `i`.
    fn answers(&self, i: usize, payload: &Payload) -> bool {
        match &self.requests[i].1 {
            Some(want) => payload == want,
            None => matches!(payload, Payload::Metrics(_)),
        }
    }
}

/// Answers computed in process from one snapshot, before serving.
fn catalogue(quarry: &Quarry) -> Result<Catalogue, String> {
    let snap = quarry.snapshot();
    let qs = queries();
    let mut requests = Vec::new();
    for q in &qs {
        let r = snap.query(q).map_err(|e| format!("in-process query: {e}"))?;
        requests.push((Request::Query(q.clone()), Some(rows_payload(r))));
    }
    let p = hits_payload(&snap, KEYWORD, TOP_K);
    if !matches!(&p, Payload::Hits { candidates, .. } if !candidates.is_empty()) {
        return Err(format!("keyword search {KEYWORD:?} translated to no candidate query"));
    }
    requests.push((Request::KeywordSearch { query: KEYWORD.into(), k: TOP_K }, Some(p)));
    let q = &qs[EXPLAINED];
    let plan = snap.explain_query(q).map_err(|e| format!("in-process explain: {e}"))?;
    requests.push((Request::Explain(q.clone()), Some(Payload::Plan(plan))));
    requests.push((Request::Stats, None));
    Ok(Catalogue { requests })
}

/// One cycle of eight requests, as catalogue indices: each structured
/// query once, the keyword search twice, the explain once, Stats once.
const CYCLE: [usize; 8] = [0, 1, 2, 3, 4, 4, 5, 6];

/// `pr6_loadgen`'s 4:2:1:1 mix, each cycle of eight in an order drawn
/// from the seed.
struct Gen {
    rng: Rng,
    cat: Arc<Catalogue>,
    /// What is left of the current cycle.
    cycle: Vec<usize>,
}

impl OpGen for Gen {
    type Expect = usize;

    fn next(&mut self) -> Planned<usize> {
        if self.cycle.is_empty() {
            self.cycle = CYCLE.to_vec();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.cycle.swap(i, j);
            }
        }
        let i = self.cycle.pop().expect("a cycle is never empty here");
        Planned { kind: Kind::Read, req: self.cat.requests[i].0.clone(), expect: i }
    }

    fn check(&mut self, planned: &Planned<usize>, payload: &Payload) -> bool {
        self.cat.answers(planned.expect, payload)
    }
}

struct Setup {
    server: Server,
    cat: Arc<Catalogue>,
    db: Arc<quarry_storage::Database>,
    rows: usize,
    docs: usize,
}

fn setup() -> Result<Setup, String> {
    let corpus = Corpus::generate(&CorpusConfig::default());
    let docs = corpus.docs.len();
    let mut quarry = Quarry::new(QuarryConfig::default()).map_err(|e| e.to_string())?;
    quarry.ingest(corpus.docs);
    let stats = quarry.run_pipeline(PIPELINE).map_err(|e| format!("pipeline: {e}"))?;
    let cat = Arc::new(catalogue(&quarry)?);
    let db = Arc::clone(&quarry.db);
    let server = Server::start(quarry, "127.0.0.1:0", ServeConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    // Warm-up and the first-pass check: every distinct request over the
    // wire must equal its in-process answer.
    let mut c = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    for (i, (req, _)) in cat.requests.iter().enumerate() {
        let got = c.request(req).map_err(|e| format!("warm-up request {i}: {e}"))?;
        if !cat.answers(i, &got.payload) {
            return Err(format!("first pass: request {i} differs from its in-process answer"));
        }
    }
    Ok(Setup { server, cat, db, rows: stats.rows_stored, docs })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let (s, setup_s) = repeated_setup(SETUPS, |_| setup())?;
    let memory = Memory::after_setup();
    r.info("env.durability", "in-memory store (no WAL)");
    r.info("env.pool_pages", "none (no checkpoint image)");
    r.info("env.rows", format!("cities={} from {} docs", s.rows, s.docs));
    r.info("env.image_bytes", 0);
    r.check("first pass over the wire equals the in-process Snapshot answers", true);
    let gens: Vec<Gen> = (0..CLIENTS)
        .map(|c| Gen {
            rng: Rng::new(args.seed, c as u64),
            cat: Arc::clone(&s.cat),
            cycle: Vec::new(),
        })
        .collect();
    r.info("env.clients", gens.len());
    if args.trace {
        let ckpt_seq = AtomicU64::new(0);
        let io = Arc::new(IoCounters::default());
        traced_node(&mut r, args, gens, s.server, s.db, io, &ckpt_seq)?;
    } else {
        let run = measured(gens, &s.server, args)?;
        end_to_end(&mut r, &run, setup_s);
        memory.report(&mut r);
        drop(s.server);
    }
    Ok(r)
}
