//! The four workloads: how each one's requests are drawn, how each
//! request's expected answer is fixed before timing, and the request
//! files the measuring processes read.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::Path;

use template_deps::td_core::canon::{system_key, CanonKey};
use template_deps::td_core::chase::ChaseBudget;
use template_deps::td_core::inference::implies;
use template_deps::td_core::parser::parse as parse_tds;
use template_deps::td_reduction::deps::build_system;
use template_deps::td_reduction::engine::{Engine, RequestBudget};
use template_deps::td_reduction::fastpath::{prescreen, FastBudget};
use template_deps::td_reduction::pipeline::{
    solve_with_opts, Budgets, FastPath, SolveMode, SolveOptions,
};
use template_deps::td_semigroup::derivation::SearchBudget;
use template_deps::td_semigroup::model_search::ModelSearchOptions;
use template_deps::td_semigroup::normalize::normalize;

use crate::gen::{draw_full_td, draw_medium, draw_noisy_chain, draw_small, Inst, Rng};
use crate::stats::Verdict;

/// The workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdEasy,
    WarmRepeat,
    HardSearch,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold_easy" => Workload::ColdEasy,
            "warm_repeat" => Workload::WarmRepeat,
            "hard_search" => Workload::HardSearch,
            "serve_mixed" => Workload::ServeMixed,
            _ => return None,
        })
    }
}

/// Requests in one pass (for `serve_mixed`, per connection; the strata
/// quotas fix the other two): fixed, so each pass's tail percentile rests
/// on the same sample count (see [`crate::stats::tail_percentile`]).
const WARM_PASS: usize = 2000;
const SERVE_PER_CONN: usize = 250;

/// Distinct classes in the warm working set (`warm_repeat`, `serve_mixed`).
const WORKING_SET: usize = 250;

/// The per-request cap carried by `hard_search`'s budget-exhausting
/// requests: the oracle and the engine both stop there.
pub const HARD_CAP: RequestBudget = RequestBudget {
    derivation_states: Some(3000),
    model_nodes: Some(3000),
};

/// Largest normalized alphabet a request may have: the model search
/// enumerates interpretations exponentially in it, and one outlier would
/// set a pass's time.
const MAX_NORMALIZED_SYMBOLS: usize = 8;

/// The chains' bound: a chain's model lane loses the race, so its
/// alphabet does not set its cost.
const CHAIN_SYMBOLS: usize = 11;

/// One in-process request: what to decide, under which budget, and the
/// answer fixed before timing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The stratum the request was drawn for (`settled`, `bail`, `chain`,
    /// `implied`, `refuted`, `unknown`, `identical`, `disguised`).
    pub tag: String,
    pub expected: Verdict,
    pub budget: Option<RequestBudget>,
    pub inst: Inst,
}

impl Request {
    /// One tab-separated line: tag, expected, budget, instance.
    pub fn to_line(&self) -> String {
        let budget = match self.budget {
            None => "-".to_owned(),
            Some(b) => format!(
                "{},{}",
                b.derivation_states.unwrap_or(0),
                b.model_nodes.unwrap_or(0)
            ),
        };
        let eqs = self.inst.eq_texts().join(";");
        format!(
            "{}\t{}\t{}\t{}|{}|{}|{}",
            self.tag,
            self.expected.letter(),
            budget,
            self.inst.names.join(" "),
            self.inst.a0,
            self.inst.zero,
            eqs
        )
    }

    /// The inverse of [`Request::to_line`].
    pub fn from_line(line: &str) -> Option<Request> {
        let mut cols = line.split('\t');
        let tag = cols.next()?.to_owned();
        let expected = Verdict::from_letter(cols.next()?)?;
        let budget = match cols.next()? {
            "-" => None,
            b => {
                let (d, m) = b.split_once(',')?;
                Some(RequestBudget {
                    derivation_states: Some(d.parse().ok()?),
                    model_nodes: Some(m.parse().ok()?),
                })
            }
        };
        let mut parts = cols.next()?.split('|');
        let names: Vec<String> = parts.next()?.split(' ').map(str::to_owned).collect();
        let a0 = parts.next()?.parse().ok()?;
        let zero = parts.next()?.parse().ok()?;
        let sym = |name: &str| names.iter().position(|n| n == name);
        let word = |w: &str| w.split_whitespace().map(sym).collect::<Option<Vec<_>>>();
        let eqs = parts
            .next()?
            .split(';')
            .filter(|e| !e.is_empty())
            .map(|e| {
                let (l, r) = e.split_once(" = ")?;
                Some((word(l)?, word(r)?))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Request {
            tag,
            expected,
            budget,
            inst: Inst {
                names,
                a0,
                zero,
                eqs,
            },
        })
    }
}

fn budgets_for(states: usize, nodes: u64) -> Budgets {
    Budgets {
        derivation: SearchBudget {
            max_states: states,
            ..SearchBudget::default()
        },
        model: ModelSearchOptions {
            max_nodes: nodes,
            ..ModelSearchOptions::default()
        },
        ..Budgets::default()
    }
}

/// A verdict with the search spend behind it.
struct Solved {
    verdict: Verdict,
    derivation_states: usize,
    model_nodes: u64,
}

/// Solves `inst` with the prescreen off. `Sequential` is the oracle —
/// derivation search, then model search, on the calling thread: the
/// reference the repository's differential tests compare every other
/// solve path against, and the source of every expected answer.
/// `Racing` only sorts candidates into strata (the winner's spend is
/// exact either way), because it reaches a refutation without first
/// exhausting the derivation budget.
fn solve(inst: &Inst, budgets: &Budgets, mode: SolveMode) -> Result<Solved, String> {
    let opts = SolveOptions {
        mode,
        fastpath: FastPath::Off,
        ..SolveOptions::default()
    };
    let run = solve_with_opts(&inst.presentation(), budgets, opts).map_err(|e| e.to_string())?;
    let verdict = if run.outcome.is_implied() {
        Verdict::Implied
    } else if run.outcome.is_refuted() {
        Verdict::Refuted
    } else {
        Verdict::Unknown
    };
    Ok(Solved {
        verdict,
        derivation_states: run.spend.derivation_states,
        model_nodes: run.spend.model_nodes,
    })
}

fn oracle(inst: &Inst, budgets: &Budgets) -> Result<Solved, String> {
    solve(inst, budgets, SolveMode::Sequential)
}

/// The cheap screen every candidate passes first: its normalization is
/// small enough, `wanted` accepts whether the prescreen settles it, and
/// its canonical class is new (then recorded in `seen`). Returns whether
/// the prescreen settled it.
fn screen(
    inst: &Inst,
    max_symbols: usize,
    seen: &mut HashSet<CanonKey>,
    wanted: impl Fn(bool) -> bool,
) -> Result<Option<bool>, String> {
    let normalized = normalize(&inst.presentation().zero_saturated()).map_err(|e| e.to_string())?;
    if normalized.presentation.alphabet().len() > max_symbols {
        return Ok(None);
    }
    let system = build_system(&normalized.presentation).map_err(|e| e.to_string())?;
    let settled = prescreen(&system, &FastBudget::default())
        .map_err(|e| e.to_string())?
        .verdict
        .is_some();
    if !wanted(settled) || !seen.insert(system_key(&system.deps, &system.d0)) {
        return Ok(None);
    }
    Ok(Some(settled))
}

/// One stratum of a workload: the requests taken for it, up to `quota`.
struct Stratum {
    tag: &'static str,
    quota: usize,
    taken: Vec<Request>,
}

impl Stratum {
    fn new(tag: &'static str, quota: usize) -> Self {
        Stratum {
            tag,
            quota,
            taken: Vec::with_capacity(quota),
        }
    }

    fn full(&self) -> bool {
        self.taken.len() >= self.quota
    }

    fn take(&mut self, inst: &Inst, expected: Verdict, budget: Option<RequestBudget>) {
        self.taken.push(Request {
            tag: self.tag.to_owned(),
            expected,
            budget,
            inst: inst.clone(),
        });
    }
}

/// Draws until every stratum is full, failing rather than looping forever
/// if a generator change made a stratum unreachable.
fn fill(
    strata: &mut [Stratum],
    mut draw: impl FnMut(&mut [Stratum]) -> Result<(), String>,
) -> Result<(), String> {
    for _ in 0..20_000 {
        if strata.iter().all(Stratum::full) {
            return Ok(());
        }
        draw(strata)?;
    }
    Err("request generator could not fill its strata".to_owned())
}

/// `cold_easy`: distinct small classes, about two thirds settled by the
/// prescreen and the rest cheap searches. Quotas fix the mix exactly.
fn cold_easy(seed: u64) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed, 1);
    let budgets = budgets_for(2000, 2000);
    let mut seen = HashSet::new();
    // settled-refuted, settled-implied, bail-implied, bail-refuted.
    let mut strata = [
        Stratum::new("settled", 240),
        Stratum::new("settled", 27),
        Stratum::new("bail", 90),
        Stratum::new("bail", 43),
    ];
    fill(&mut strata, |s| {
        let inst = draw_small(&mut rng);
        let want = |settled: bool| {
            if settled {
                !(s[0].full() && s[1].full())
            } else {
                !(s[2].full() && s[3].full())
            }
        };
        let Some(settled) = screen(&inst, MAX_NORMALIZED_SYMBOLS, &mut seen, want)? else {
            return Ok(());
        };
        let o = oracle(&inst, &budgets)?;
        let slot = match (settled, o.verdict) {
            (true, Verdict::Refuted) => 0,
            (true, Verdict::Implied) => 1,
            (false, Verdict::Implied) if o.derivation_states <= 200 => 2,
            (false, Verdict::Refuted) if o.model_nodes <= 100 => 3,
            _ => return Ok(()),
        };
        if !s[slot].full() {
            s[slot].take(&inst, o.verdict, None);
        }
        Ok(())
    })?;
    let mut reqs: Vec<Request> = strata.into_iter().flat_map(|s| s.taken).collect();
    rng.shuffle(&mut reqs);
    Ok(reqs)
}

/// `hard_search`: distinct classes the prescreen bails on, whose searches
/// and certificates take most of `decide` — product chains, chains whose
/// extra rules widen the derivation search, refutations the model search
/// works for, and budget-exhausted `Unknown`s under [`HARD_CAP`].
fn hard_search(seed: u64) -> Result<Vec<Request>, String> {
    let mut rng = Rng::new(seed, 2);
    let mut seen = HashSet::new();
    let cap = budgets_for(
        HARD_CAP.derivation_states.unwrap_or(0),
        HARD_CAP.model_nodes.unwrap_or(0),
    );
    let mut strata = [
        Stratum::new("chain", 32),
        Stratum::new("searched", 40),
        Stratum::new("searched", 24),
        Stratum::new("refuted", 40),
        Stratum::new("unknown", 24),
    ];
    let bail = |settled: bool| !settled;
    // Two narrow bands of derivation states, so the search work of a pass
    // hardly depends on the seed; both far below the 100k-state searches
    // whose time swings with the host.
    let bands = [500..=3000, 8000..=14000];
    let search_cap = budgets_for(15_000, 1000);
    fill(&mut strata, |s| {
        if !s[0].full() {
            let inst = draw_noisy_chain(&mut rng, 3);
            if screen(&inst, CHAIN_SYMBOLS, &mut seen, bail)?.is_some()
                && oracle(&inst, &search_cap)?.verdict == Verdict::Implied
            {
                s[0].take(&inst, Verdict::Implied, None);
            }
            return Ok(());
        }
        if !(s[1].full() && s[2].full()) {
            let k = if s[1].full() { 5 } else { 4 };
            let inst = draw_noisy_chain(&mut rng, k);
            if screen(&inst, CHAIN_SYMBOLS, &mut seen, bail)?.is_some() {
                // A derivation found within the cap is the oracle's answer
                // under the engine's larger default budgets too.
                let o = oracle(&inst, &search_cap)?;
                for (band, slot) in bands.iter().zip(1..) {
                    if o.verdict == Verdict::Implied
                        && band.contains(&o.derivation_states)
                        && !s[slot].full()
                    {
                        s[slot].take(&inst, o.verdict, None);
                    }
                }
            }
            return Ok(());
        }
        let inst = draw_medium(&mut rng);
        if screen(&inst, MAX_NORMALIZED_SYMBOLS, &mut seen, bail)?.is_none() {
            return Ok(());
        }
        let raced = solve(&inst, &cap, SolveMode::Racing)?;
        match raced.verdict {
            Verdict::Refuted if raced.model_nodes > 0 && !s[3].full() => {
                s[3].take(&inst, oracle(&inst, &cap)?.verdict, None);
            }
            Verdict::Unknown if !s[4].full() => {
                s[4].take(&inst, oracle(&inst, &cap)?.verdict, Some(HARD_CAP));
            }
            _ => {}
        }
        Ok(())
    })?;
    let mut reqs: Vec<Request> = strata.into_iter().flat_map(|s| s.taken).collect();
    rng.shuffle(&mut reqs);
    Ok(reqs)
}

/// The warm working set: distinct small classes the oracle decides
/// within small budgets (`Unknown` is never cached, so it could not be
/// warm), half of them settled by the prescreen.
fn working_set(rng: &mut Rng) -> Result<Vec<Request>, String> {
    let budgets = budgets_for(2000, 2000);
    let mut seen = HashSet::new();
    let half = WORKING_SET / 2;
    let mut strata = [
        Stratum::new("identical", half),
        Stratum::new("identical", WORKING_SET - half),
    ];
    fill(&mut strata, |s| {
        let inst = draw_small(rng);
        let want = |settled: bool| !s[usize::from(!settled)].full();
        let Some(settled) = screen(&inst, MAX_NORMALIZED_SYMBOLS, &mut seen, want)? else {
            return Ok(());
        };
        let o = oracle(&inst, &budgets)?;
        if o.verdict.decided() {
            s[usize::from(!settled)].take(&inst, o.verdict, None);
        }
        Ok(())
    })?;
    Ok(strata.into_iter().flat_map(|s| s.taken).collect())
}

/// A renamed, rotated copy of `inst` in the same canonical class. The
/// rotation falls back to none when normalization numbers fresh symbols
/// differently after rotating (which would change the class).
fn disguised(inst: &Inst, tag: usize, rng: &mut Rng) -> Result<Inst, String> {
    let key = |i: &Inst| Engine::canonical_key(&i.presentation()).map_err(|e| e.to_string());
    let want = key(inst)?;
    let rotated = inst.disguise(tag, 1 + rng.below(inst.eqs.len().max(1)));
    if key(&rotated)? == want {
        return Ok(rotated);
    }
    let renamed = inst.disguise(tag, 0);
    if key(&renamed)? != want {
        return Err("renaming changed the canonical class".to_owned());
    }
    Ok(renamed)
}

/// Decides the working set on a fresh engine and returns its snapshot.
fn snapshot_of(set: &[Request]) -> Result<Vec<u8>, String> {
    let engine = Engine::new();
    for r in set {
        let d = engine
            .decide(&r.inst.presentation())
            .map_err(|e| e.to_string())?;
        if engine.cache().get(d.key).is_none() {
            return Err("a working-set class was not cached".to_owned());
        }
    }
    Ok(engine.save_snapshot())
}

/// `warm_repeat`: the working set, each class asked four times verbatim
/// and four times disguised, in a seeded order.
fn warm_repeat(seed: u64) -> Result<(Vec<Request>, Vec<u8>), String> {
    let mut rng = Rng::new(seed, 3);
    let set = working_set(&mut rng)?;
    let copies = WARM_PASS / (2 * set.len());
    let mut reqs = Vec::with_capacity(WARM_PASS);
    let mut tag = 0;
    for r in &set {
        for _ in 0..copies {
            reqs.push(r.clone());
            tag += 1;
            reqs.push(Request {
                tag: "disguised".to_owned(),
                inst: disguised(&r.inst, tag, &mut rng)?,
                ..r.clone()
            });
        }
    }
    rng.shuffle(&mut reqs);
    Ok((reqs, snapshot_of(&set)?))
}

/// One `serve_mixed` request line and how to check its reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeRequest {
    /// `wp`, `batch`, `ask`, `plain` (a session mutation) or `stats`.
    pub op: String,
    /// Expected verdicts, in reply order (`wp`/`ask`: one; `batch`: one
    /// per item; otherwise none).
    pub expected: Vec<Verdict>,
    /// Whether the request is a repeat of a byte-identical instance
    /// (`wp` only; for the identical/disguised share).
    pub identical: bool,
    /// The NDJSON request line.
    pub line: String,
}

impl ServeRequest {
    pub fn to_line(&self) -> String {
        let expected: String = self.expected.iter().map(|v| v.letter()).collect();
        format!(
            "{}\t{}\t{}\t{}",
            self.op,
            if expected.is_empty() { "-" } else { &expected },
            u8::from(self.identical),
            self.line
        )
    }

    pub fn from_line(line: &str) -> Option<ServeRequest> {
        let mut cols = line.splitn(4, '\t');
        let op = cols.next()?.to_owned();
        let expected = match cols.next()? {
            "-" => Vec::new(),
            e => e
                .chars()
                .map(|c| Verdict::from_letter(&c.to_string()))
                .collect::<Option<_>>()?,
        };
        let identical = cols.next()? == "1";
        Some(ServeRequest {
            op,
            expected,
            identical,
            line: cols.next()?.to_owned(),
        })
    }
}

/// Connections `serve_mixed` drives: one per CPU, at most two, so the
/// workload never uses more connections than `nproc`.
pub fn serve_connections() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(2)
}

/// One step of a Σ-session script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOp {
    pub session: String,
    /// `open`, `add`, `ask` or `close`.
    pub kind: String,
    /// The answer a from-scratch chase gives (`ask` only).
    pub expected: Option<Verdict>,
    /// The td-core text (`add`, `ask`), schema line included.
    pub text: String,
}

impl SessionOp {
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}",
            self.session,
            self.kind,
            self.expected.map_or('-', Verdict::letter),
            self.text.replace('\n', "\\n")
        )
    }

    pub fn from_line(line: &str) -> Option<SessionOp> {
        let mut cols = line.splitn(4, '\t');
        Some(SessionOp {
            session: cols.next()?.to_owned(),
            kind: cols.next()?.to_owned(),
            expected: match cols.next()? {
                "-" => None,
                v => Some(Verdict::from_letter(v)?),
            },
            text: cols.next()?.replace("\\n", "\n"),
        })
    }

    /// The NDJSON form of this step, with request id `id`.
    pub fn serve_request(&self, id: usize) -> ServeRequest {
        let name = &self.session;
        let text = self.text.replace('\n', "\\n");
        let (op, body) = match self.kind.as_str() {
            "open" => (
                "plain",
                format!("\"op\":\"session_open\",\"session\":\"{name}\""),
            ),
            "add" => (
                "plain",
                format!("\"op\":\"session_add_dep\",\"session\":\"{name}\",\"text\":\"{text}\""),
            ),
            "ask" => (
                "ask",
                format!("\"op\":\"session_ask\",\"session\":\"{name}\",\"text\":\"{text}\""),
            ),
            _ => (
                "plain",
                format!("\"op\":\"session_close\",\"session\":\"{name}\""),
            ),
        };
        ServeRequest {
            op: op.to_owned(),
            expected: self.expected.into_iter().collect(),
            identical: false,
            line: format!("{{\"id\":{id},{body}}}"),
        }
    }
}

/// The session script of one block: open, add two full TDs, ask two
/// goals (expected answers from a from-scratch chase), close.
fn session_block(rng: &mut Rng, name: &str) -> Result<Vec<SessionOp>, String> {
    const SCHEMA: &str = "schema R(A, B, C)\n";
    let d1 = draw_full_td(rng, "d1");
    let d2 = draw_full_td(rng, "d2");
    let sigma = parse_tds(&format!("{SCHEMA}{d1}{d2}")).map_err(|e| e.to_string())?;
    let op = |kind: &str, expected, text: String| SessionOp {
        session: name.to_owned(),
        kind: kind.to_owned(),
        expected,
        text,
    };
    let mut out = vec![op("open", None, String::new())];
    for d in [&d1, &d2] {
        out.push(op("add", None, format!("{SCHEMA}{d}")));
    }
    for g in ["g1", "g2"] {
        let goal_text = format!("{SCHEMA}{}", draw_full_td(rng, g));
        let goal = parse_tds(&goal_text).map_err(|e| e.to_string())?;
        let v =
            implies(&sigma.tds, &goal.tds[0], ChaseBudget::default()).map_err(|e| e.to_string())?;
        let expected = if v.is_implied() {
            Verdict::Implied
        } else if v.is_not_implied() {
            Verdict::Refuted
        } else {
            Verdict::Unknown
        };
        out.push(op("ask", Some(expected), goal_text));
    }
    out.push(op("close", None, String::new()));
    Ok(out)
}

/// Session scripts every traced run measures the session layer on.
const TRACE_SESSIONS: usize = 20;

/// Blocks per connection and pass: 175 `wp`, 10 session scripts (six
/// requests each), 10 four-item batches and 5 `stats` — 250 requests.
/// The batches are the slowest requests, and with two connections there
/// are 20 of them in a 500-request pass, so the pass's tail (the 11th
/// slowest) falls in the middle of the batch group rather than at its
/// edge, where it swung with host load.
const SERVE_WP: usize = 175;
const SERVE_SESSIONS: usize = 10;
const SERVE_BATCHES: usize = 10;
const SERVE_STATS: usize = 5;
const BATCH_ITEMS: usize = 4;

/// `serve_mixed`: per connection, a shuffled mix of repeat-heavy `wp`
/// (half verbatim, half disguised), session scripts, small batches and
/// `stats`, against a server warm-started from the working set.
fn serve_mixed(seed: u64) -> Result<ServeWorkload, String> {
    let mut rng = Rng::new(seed, 4);
    let set = working_set(&mut rng)?;
    let mut conns = Vec::new();
    let mut wp_requests = Vec::new();
    let mut tag = 0;
    for c in 0..serve_connections() {
        let mut blocks: Vec<Vec<ServeRequest>> = Vec::new();
        let mut id = 0;
        let mut pick = |rng: &mut Rng, identical: bool| -> Result<(Verdict, Inst), String> {
            let r = &set[rng.below(set.len())];
            if identical {
                return Ok((r.expected, r.inst.clone()));
            }
            tag += 1;
            Ok((r.expected, disguised(&r.inst, tag, rng)?))
        };
        for k in 0..SERVE_WP {
            let identical = k % 2 == 0;
            let (expected, inst) = pick(&mut rng, identical)?;
            id += 1;
            if c == 0 {
                wp_requests.push(Request {
                    tag: if identical { "identical" } else { "disguised" }.to_owned(),
                    expected,
                    budget: None,
                    inst: inst.clone(),
                });
            }
            blocks.push(vec![ServeRequest {
                op: "wp".to_owned(),
                expected: vec![expected],
                identical,
                line: format!("{{\"id\":{id},\"op\":\"wp\",{}}}", inst.json_fields()),
            }]);
        }
        for k in 0..SERVE_BATCHES {
            let mut expected = Vec::with_capacity(BATCH_ITEMS);
            let mut items = Vec::with_capacity(BATCH_ITEMS);
            for i in 0..BATCH_ITEMS {
                let (v, inst) = pick(&mut rng, (k + i) % 2 == 0)?;
                expected.push(v);
                items.push(format!("{{{}}}", inst.json_fields()));
            }
            id += 1;
            blocks.push(vec![ServeRequest {
                op: "batch".to_owned(),
                expected,
                identical: false,
                line: format!(
                    "{{\"id\":{id},\"op\":\"batch\",\"items\":[{}]}}",
                    items.join(",")
                ),
            }]);
        }
        for k in 0..SERVE_SESSIONS {
            let mut block = Vec::new();
            for step in session_block(&mut rng, &format!("c{c}s{k}"))? {
                id += 1;
                block.push(step.serve_request(id));
            }
            blocks.push(block);
        }
        for _ in 0..SERVE_STATS {
            id += 1;
            blocks.push(vec![ServeRequest {
                op: "stats".to_owned(),
                expected: vec![],
                identical: false,
                line: format!("{{\"id\":{id},\"op\":\"stats\"}}"),
            }]);
        }
        rng.shuffle(&mut blocks);
        conns.push(blocks.into_iter().flatten().collect());
    }
    Ok(ServeWorkload {
        conns,
        wp_requests,
        snapshot: snapshot_of(&set)?,
    })
}

/// `serve_mixed`'s inputs: one script per connection, plus the first
/// connection's `wp` instances for the traced run's in-process layers.
struct ServeWorkload {
    conns: Vec<Vec<ServeRequest>>,
    wp_requests: Vec<Request>,
    snapshot: Vec<u8>,
}

/// Draws the workload for `seed`, fixes every expected answer, and
/// writes the request file (plus the snapshot for the warm workloads)
/// into `dir`. Returns a one-line summary.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("cannot write {name}: {e}"))
    };
    let lines = |reqs: &[Request]| {
        let mut s = String::new();
        for r in reqs {
            let _ = writeln!(s, "{}", r.to_line());
        }
        s
    };
    let summary = |reqs: &[Request]| {
        let mut tags: Vec<(String, usize)> = Vec::new();
        for r in reqs {
            match tags.iter_mut().find(|(t, _)| *t == r.tag) {
                Some((_, n)) => *n += 1,
                None => tags.push((r.tag.clone(), 1)),
            }
        }
        tags.iter()
            .map(|(t, n)| format!("{t}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut rng = Rng::new(seed, 5);
    let mut sessions = String::new();
    for k in 0..TRACE_SESSIONS {
        for step in session_block(&mut rng, &format!("t{k}"))? {
            let _ = writeln!(sessions, "{}", step.to_line());
        }
    }
    write("sessions.txt", sessions.as_bytes())?;
    match workload {
        Workload::ColdEasy | Workload::HardSearch => {
            let reqs = if workload == Workload::ColdEasy {
                cold_easy(seed)?
            } else {
                hard_search(seed)?
            };
            write("requests.txt", lines(&reqs).as_bytes())?;
            Ok(summary(&reqs))
        }
        Workload::WarmRepeat => {
            let (reqs, snap) = warm_repeat(seed)?;
            write("requests.txt", lines(&reqs).as_bytes())?;
            write("snapshot.bin", &snap)?;
            Ok(summary(&reqs))
        }
        Workload::ServeMixed => {
            let w = serve_mixed(seed)?;
            for (c, reqs) in w.conns.iter().enumerate() {
                let mut s = String::new();
                for r in reqs {
                    let _ = writeln!(s, "{}", r.to_line());
                }
                write(&format!("conn{c}.txt"), s.as_bytes())?;
            }
            write("requests.txt", lines(&w.wp_requests).as_bytes())?;
            write("snapshot.bin", &w.snapshot)?;
            Ok(format!(
                "connections={} per_connection={}",
                w.conns.len(),
                SERVE_PER_CONN
            ))
        }
    }
}

/// Reads the session scripts written by [`prepare`].
pub fn read_sessions(dir: &Path) -> Result<Vec<SessionOp>, String> {
    let text = std::fs::read_to_string(dir.join("sessions.txt"))
        .map_err(|e| format!("cannot read sessions: {e}"))?;
    text.lines()
        .map(|l| SessionOp::from_line(l).ok_or_else(|| format!("bad session line: {l}")))
        .collect()
}

/// Reads an in-process request file written by [`prepare`].
pub fn read_requests(dir: &Path) -> Result<Vec<Request>, String> {
    let text = std::fs::read_to_string(dir.join("requests.txt"))
        .map_err(|e| format!("cannot read requests: {e}"))?;
    text.lines()
        .map(|l| Request::from_line(l).ok_or_else(|| format!("bad request line: {l}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let mut rng = Rng::new(5, 0);
        for _ in 0..50 {
            let r = Request {
                tag: "bail".to_owned(),
                expected: Verdict::Refuted,
                budget: Some(HARD_CAP),
                inst: draw_medium(&mut rng),
            };
            assert_eq!(Request::from_line(&r.to_line()), Some(r));
        }
    }

    #[test]
    fn the_same_seed_draws_the_same_requests() {
        let a = cold_easy(11).unwrap();
        let b = cold_easy(11).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 400);
        let c = cold_easy(12).unwrap();
        assert_ne!(a, c, "another seed draws other requests");
        let tags = |reqs: &[Request], tag: &str| reqs.iter().filter(|r| r.tag == tag).count();
        assert_eq!(
            tags(&a, "settled"),
            tags(&c, "settled"),
            "quotas fix the mix"
        );
    }

    #[test]
    fn cold_requests_are_distinct_classes() {
        let reqs = cold_easy(3).unwrap();
        let keys: HashSet<CanonKey> = reqs
            .iter()
            .map(|r| Engine::canonical_key(&r.inst.presentation()).unwrap())
            .collect();
        assert_eq!(keys.len(), reqs.len());
    }

    #[test]
    fn serve_lines_round_trip() {
        let r = ServeRequest {
            op: "batch".to_owned(),
            expected: vec![Verdict::Implied, Verdict::Refuted],
            identical: false,
            line: "{\"id\":1,\"op\":\"batch\",\"items\":[]}".to_owned(),
        };
        assert_eq!(ServeRequest::from_line(&r.to_line()), Some(r));
    }

    #[test]
    fn disguises_stay_in_class() {
        let mut rng = Rng::new(9, 0);
        for t in 0..40 {
            let inst = draw_small(&mut rng);
            let d = disguised(&inst, t, &mut rng).unwrap();
            assert_ne!(d.names, inst.names);
            assert_eq!(
                Engine::canonical_key(&d.presentation()).unwrap(),
                Engine::canonical_key(&inst.presentation()).unwrap()
            );
        }
    }
}
