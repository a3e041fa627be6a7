//! The traced run: per-layer costs on the workload's own requests.
//!
//! Spans are recorded from the benchmark's side, around the public call
//! into each layer, never inside the program. For every request the run
//! times the real `Engine::decide`, then replays the decide path layer by
//! layer — `normalize` → `deps` → `canon` → `cache` → `fastpath` →
//! `portfolio` (with one child span per lane) → `certificate` — under a
//! root `request` span. Every layer is probed on
//! every request (a cache hit does not skip the portfolio probe), so each
//! layer's cost on the workload is known even where the engine's path
//! skips it; the path shares (`cache.hit_share`,
//! `fastpath.settle_share`, `portfolio.solves_per_req`) say how often the
//! engine's path took each layer. `engine.residual_us_per_req` is
//! `decide` minus the probes of the layers on that request's path.
//!
//! Passes alternate untraced (decide only) and traced; the difference of
//! their per-request decide time is the tracing overhead. The serve
//! layer is probed with the requests' NDJSON form (in process through
//! `serve::handle_line`, and over TCP against `tdq serve`), the session
//! and batch layers with the workload's session scripts and its requests
//! in batches of four. Spans stay in memory and are written out when the
//! run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use template_deps::jsonl::Json;
use template_deps::serve::handle_line;
use template_deps::td_core::budget::Cancellation;
use template_deps::td_core::canon::{canon_key, system_key_with, CanonKey};
use template_deps::td_core::homomorphism::MatchStrategy;
use template_deps::td_core::parser::parse as parse_tds;
use template_deps::td_core::td::Td;
use template_deps::td_reduction::deps::build_system;
use template_deps::td_reduction::engine::{Engine, SessionVerdict};
use template_deps::td_reduction::fastpath::{prescreen, FastBudget};
use template_deps::td_reduction::part_a::prove_part_a_with;
use template_deps::td_reduction::part_b::build_counter_model;
use template_deps::td_reduction::pipeline::{
    portfolio_winner, run_portfolio, DerivationRacer, LaneFound, LaneRun, ModelRacer, Racer,
};
use template_deps::td_reduction::verify::verify_counter_model_with;
use template_deps::td_semigroup::normalize::normalize;
use template_deps::td_semigroup::presentation::Presentation;

use crate::client::{checks, Conn, Server};
use crate::measure::{fresh_engine, read_serve_requests, read_snapshot, run_script, verdict_of};
use crate::stats::{field, fields, median, Pass, Verdict};
use crate::workload::{read_requests, read_sessions, Request, ServeRequest, Workload};
use crate::{check_properties, Property};

/// No parent.
const ROOT: u32 = u32::MAX;

/// One span: a layer call's interval, the span that caused it, and the
/// request it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u32,
}

/// An in-memory span log.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `f` as span `name` under `parent`; returns its result and
    /// span index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        req: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        (out, self.push(name, start_ns, end_ns, parent, req))
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        req: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    /// Each span's self time: its duration minus the part of its interval
    /// its children cover (children may overlap, as parallel lanes do).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut kids = children.remove(&(i as u32)).unwrap_or_default();
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Writes every span, one per line: name, start, end, parent, request.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "{} {} {} {} {}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write spans: {e}"))
    }
}

/// A portfolio lane that records when it ran, so each lane becomes a
/// child span of the `portfolio` span.
struct TimedLane<'a> {
    inner: &'a dyn Racer,
    origin: Instant,
    start_ns: AtomicU64,
    end_ns: AtomicU64,
}

impl<'a> TimedLane<'a> {
    fn new(inner: &'a dyn Racer, origin: Instant) -> Self {
        TimedLane {
            inner,
            origin,
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
        }
    }
}

impl Racer for TimedLane<'_> {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn run(
        &self,
        np: &Presentation,
        cancel: &Cancellation,
    ) -> template_deps::td_reduction::error::Result<LaneRun> {
        self.start_ns
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let run = self.inner.run(np, cancel);
        self.end_ns
            .store(self.origin.elapsed().as_nanos() as u64, Ordering::Relaxed);
        run
    }
}

/// Per-TD canonical keys memoized by exact structure, as the engine keys
/// repeated dependencies: the `canon` probe must do the work `decide`
/// does, not the full canonical search for every premise. Bounded and
/// cleared like the engine's memo.
#[derive(Default)]
struct CanonMemo(HashMap<Vec<u64>, CanonKey>);

impl CanonMemo {
    const CAP: usize = 8192;

    fn key(&mut self, td: &Td) -> CanonKey {
        let mut fp = vec![td.arity() as u64, td.antecedent_count() as u64];
        for row in td
            .antecedents()
            .iter()
            .chain(std::iter::once(td.conclusion()))
        {
            fp.extend(row.components().map(|(_, v)| v.index() as u64));
        }
        if let Some(&k) = self.0.get(&fp) {
            return k;
        }
        if self.0.len() >= Self::CAP {
            self.0.clear();
        }
        let k = canon_key(td);
        self.0.insert(fp, k);
        k
    }
}

/// Sums per layer over a traced run.
#[derive(Default)]
struct Layers {
    requests: f64,
    us: HashMap<&'static str, f64>,
    /// Probes that ran the portfolio, won it, and spent in it.
    solves: f64,
    certificates: f64,
    bails: f64,
    bail_us: f64,
    states: f64,
    nodes: f64,
    tds: f64,
    /// Engine-path counts.
    hits: f64,
    settled: f64,
    engine_solves: f64,
    decide_us: f64,
    on_path_us: f64,
    portfolio_s: f64,
    identical: f64,
}

impl Layers {
    fn add(&mut self, name: &'static str, us: f64) {
        *self.us.entry(name).or_default() += us;
    }

    fn get(&self, name: &str) -> f64 {
        self.us.get(name).copied().unwrap_or(0.0)
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// One traced request: the real decide, then the layer-by-layer probe.
/// Returns the decide's checked answer.
#[allow(clippy::too_many_arguments)]
fn traced_request(
    t: &mut Tracer,
    layers: &mut Layers,
    memo: &mut CanonMemo,
    probe_engine: &Engine,
    engine: &Engine,
    r: &Request,
    p: &Presentation,
    req: u32,
) -> Result<Verdict, String> {
    // The real decide first, so it meets the request as the untraced run
    // does; the probes follow.
    let settled_before = engine.stats().fastpath_hits;
    let (d, _) = t.span("engine.decide", ROOT, req, || {
        engine.decide_with(p, r.budget)
    });
    let decide = t.spans.last().copied().expect("decide span");
    let decide_us = us(decide.end_ns - decide.start_ns);
    let d = d.map_err(|e| e.to_string())?;
    let settled = engine.stats().fastpath_hits > settled_before;
    let root_start = t.now();
    let root = t.push("request", root_start, root_start, ROOT, req);
    let first = t.spans.len();
    let (normalized, _) = t.span("normalize", root, req, || normalize(&p.zero_saturated()));
    let normalized = normalized.map_err(|e| e.to_string())?;
    let np = &normalized.presentation;
    let (system, _) = t.span("deps", root, req, || build_system(np));
    let system = system.map_err(|e| e.to_string())?;
    let (key, _) = t.span("canon", root, req, || {
        system_key_with(&system.deps, &system.d0, |td| memo.key(td))
    });
    let _ = t.span("cache", root, req, || probe_engine.cache().get(key));
    let (pre, pre_span) = t.span("fastpath", root, req, || {
        prescreen(&system, &FastBudget::default())
    });
    let pre = pre.map_err(|e| e.to_string())?;
    layers.tds += system.deps.len() as f64;
    let mut portfolio_us = 0.0;
    let mut certificate_us = 0.0;
    if pre.verdict.is_none() {
        let s = t.spans[pre_span as usize];
        layers.bails += 1.0;
        layers.bail_us += us(s.end_ns - s.start_ns);
        let budgets = engine.policy().mint(r.budget);
        let derivation = DerivationRacer {
            budget: budgets.derivation,
        };
        let model = ModelRacer {
            opts: budgets.model,
        };
        let lanes = [
            TimedLane::new(&derivation, t.origin),
            TimedLane::new(&model, t.origin),
        ];
        let lane_refs: Vec<&dyn Racer> = lanes.iter().map(|l| l as &dyn Racer).collect();
        let cancel = Cancellation::new();
        let (runs, span) = t.span("portfolio", root, req, || {
            run_portfolio(np, &lane_refs, &cancel)
        });
        let mut runs = runs.map_err(|e| e.to_string())?;
        for (lane, name) in lanes.iter().zip(["derivation", "model"]) {
            t.push(
                name,
                lane.start_ns.load(Ordering::Relaxed),
                lane.end_ns.load(Ordering::Relaxed),
                span,
                req,
            );
        }
        let s = t.spans[span as usize];
        portfolio_us = us(s.end_ns - s.start_ns);
        layers.solves += 1.0;
        layers.states += runs[0].units as f64;
        layers.nodes += runs[1].units as f64;
        let cert = match portfolio_winner(&mut runs) {
            Some((_, LaneFound::Derivation(d))) => Some(
                t.span("certificate", root, req, || {
                    prove_part_a_with(&system, np, &d, MatchStrategy::default()).map(|_| ())
                })
                .0,
            ),
            Some((_, LaneFound::Model(g, interp))) => Some(
                t.span("certificate", root, req, || {
                    build_counter_model(&system, np, &g, &interp).map(|m| {
                        let report =
                            verify_counter_model_with(MatchStrategy::default(), &system, &m);
                        debug_assert!(report.ok());
                    })
                })
                .0,
            ),
            _ => None,
        };
        if let Some(c) = cert {
            c.map_err(|e| e.to_string())?;
            layers.certificates += 1.0;
            let s = t.spans.last().copied().expect("certificate span");
            certificate_us = us(s.end_ns - s.start_ns);
        }
    }
    let root_end = t.now();
    t.spans[root as usize].end_ns = root_end;
    let mut probe = HashMap::new();
    for s in &t.spans[first..] {
        if s.parent == root {
            *probe.entry(s.name).or_insert(0.0) += us(s.end_ns - s.start_ns);
        }
    }
    for (&name, &v) in &probe {
        layers.add(name, v);
    }

    let prefix = ["normalize", "deps", "canon", "cache"]
        .iter()
        .map(|n| probe.get(n).copied().unwrap_or(0.0))
        .sum::<f64>();
    let mut on_path = prefix;
    if d.cached {
        layers.hits += 1.0;
    } else {
        on_path += probe.get("fastpath").copied().unwrap_or(0.0);
        if settled {
            layers.settled += 1.0;
        } else {
            layers.engine_solves += 1.0;
            on_path += portfolio_us + certificate_us;
        }
    }
    layers.portfolio_s +=
        (d.timings.derivation.max(d.timings.model) + d.timings.certificate).as_secs_f64();
    layers.decide_us += decide_us;
    layers.on_path_us += on_path;
    layers.requests += 1.0;
    layers.identical += f64::from(u8::from(r.tag == "identical"));
    Ok(verdict_of(&d.verdict))
}

/// The NDJSON lines the serve layer is probed with: the workload's own
/// script for `serve_mixed`, the requests as `wp` lines otherwise.
fn serve_lines(
    workload: Workload,
    dir: &Path,
    reqs: &[Request],
) -> Result<Vec<ServeRequest>, String> {
    if workload == Workload::ServeMixed {
        return read_serve_requests(dir, 0);
    }
    Ok(reqs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let budgets = r.budget.map_or(String::new(), |b| {
                format!(
                    ",\"budgets\":{{\"derivation_states\":{},\"model_nodes\":{}}}",
                    b.derivation_states.unwrap_or(0),
                    b.model_nodes.unwrap_or(0)
                )
            });
            ServeRequest {
                op: "wp".to_owned(),
                expected: vec![r.expected],
                identical: r.tag == "identical",
                line: format!(
                    "{{\"id\":{i},\"op\":\"wp\",{}{budgets}}}",
                    r.inst.json_fields()
                ),
            }
        })
        .collect())
}

/// The measuring process of a traced run: prints `layer` lines, the
/// checked-request totals and the property shares.
pub fn run(workload: Workload, dir: &Path, seconds: f64, tdq: &Path) -> Result<(), String> {
    let reqs = read_requests(dir)?;
    let presentations: Vec<Presentation> = reqs.iter().map(|r| r.inst.presentation()).collect();
    let snapshot = read_snapshot(dir)?;
    let mut t = Tracer::new();
    let mut layers = Layers::default();
    let mut checked = Pass::default();
    let start = Instant::now();

    // Decide path: alternate untraced and traced passes for half the run.
    let (mut plain_us, mut plain_n, mut traced_us, mut traced_n) = (0.0, 0.0, 0.0, 0.0);
    let mut last_engine = None;
    for k in 0.. {
        let engine = fresh_engine(snapshot.as_deref())?;
        if k % 2 == 0 {
            for (r, p) in reqs.iter().zip(&presentations) {
                let s = Instant::now();
                let d = engine.decide_with(std::hint::black_box(p), r.budget);
                plain_us += s.elapsed().as_secs_f64() * 1e6;
                plain_n += 1.0;
                let got = d.map(|d| verdict_of(&d.verdict)).map_err(|e| e.to_string());
                checked.record(0.0, &[(r.expected, got)]);
            }
        } else {
            let probe_engine = fresh_engine(snapshot.as_deref())?;
            let mut memo = CanonMemo::default();
            let before = layers.decide_us;
            for (i, (r, p)) in reqs.iter().zip(&presentations).enumerate() {
                let got = traced_request(
                    &mut t,
                    &mut layers,
                    &mut memo,
                    &probe_engine,
                    &engine,
                    r,
                    p,
                    i as u32,
                );
                checked.record(0.0, &[(r.expected, got)]);
            }
            traced_us += layers.decide_us - before;
            traced_n += reqs.len() as f64;
        }
        last_engine = Some(engine);
        if k % 2 == 1 && start.elapsed().as_secs_f64() >= seconds * 0.5 {
            break;
        }
    }
    let n = layers.requests;

    // Snapshot layer: load what the last pass's engine holds.
    let image = last_engine
        .as_ref()
        .map(Engine::save_snapshot)
        .unwrap_or_default();
    let mut loads = Vec::new();
    let mut keys = 0.0;
    for _ in 0..5 {
        let e = Engine::new();
        let s = Instant::now();
        let stats = e.load_snapshot(&image).map_err(|e| e.to_string())?;
        loads.push(s.elapsed().as_secs_f64() * 1e3);
        keys = stats.keys_loaded as f64;
    }

    // Serve layer: the same lines in process and over TCP, each against
    // a fresh engine holding the same snapshot.
    let lines = serve_lines(workload, dir, &reqs)?;
    let engine = fresh_engine(snapshot.as_deref())?;
    let (mut parse_us, mut handle_us, mut render_us) = (0.0, 0.0, 0.0);
    for r in &lines {
        let s = Instant::now();
        let parsed = Json::parse(std::hint::black_box(&r.line));
        parse_us += s.elapsed().as_secs_f64() * 1e6;
        let s = Instant::now();
        let reply = handle_line(&engine, &r.line);
        handle_us += s.elapsed().as_secs_f64() * 1e6;
        let rendered = Json::parse(&reply.text).map_err(|e| e.msg)?;
        let s = Instant::now();
        let text = std::hint::black_box(rendered.render());
        render_us += s.elapsed().as_secs_f64() * 1e6;
        let ok = parsed.is_ok() && text == reply.text;
        if r.expected.is_empty() {
            checked.record_plain(0.0, ok && reply.text.contains("\"ok\":true"));
        } else {
            checked.record(0.0, &checks(&r.expected, if ok { &reply.text } else { "" }));
        }
    }
    let snapshot_path = dir.join("snapshot.bin");
    let (server, _) = Server::start(tdq, snapshot.as_ref().map(|_| snapshot_path.as_path()), 1)?;
    let mut conn: Conn = server.connect()?;
    let tcp = run_script(&mut conn, &lines);
    drop(conn);
    server.stop()?;
    let rtt_us: f64 = tcp.pass.latencies_ms.iter().sum::<f64>() * 1e3;
    checked.absorb(&tcp.pass);

    // Session and batch layers.
    let engine = Engine::new();
    let (mut add_us, mut adds, mut ask_us, mut asks, mut steps, mut stepped) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for op in read_sessions(dir)? {
        let id = op.session.as_str();
        match op.kind.as_str() {
            "open" => engine.session_open(id).map_err(|e| e.to_string())?,
            "close" => engine.session_close(id).map_err(|e| e.to_string())?,
            "add" => {
                let tds = parse_tds(&op.text).map_err(|e| e.to_string())?.tds;
                let s = Instant::now();
                let r = engine.session_add_deps(id, &tds);
                add_us += s.elapsed().as_secs_f64() * 1e6;
                adds += 1.0;
                checked.record_plain(0.0, r.is_ok());
            }
            _ => {
                let goal = parse_tds(&op.text).map_err(|e| e.to_string())?.tds;
                let s = Instant::now();
                let r = engine.session_ask(id, &goal[0]);
                ask_us += s.elapsed().as_secs_f64() * 1e6;
                asks += 1.0;
                let got = r
                    .map(|(v, _)| match v {
                        SessionVerdict::Implied { chase_steps } => {
                            steps += chase_steps as f64;
                            stepped += 1.0;
                            Verdict::Implied
                        }
                        SessionVerdict::NotImplied { .. } => Verdict::Refuted,
                        SessionVerdict::Unknown { chase_steps, .. } => {
                            steps += chase_steps as f64;
                            stepped += 1.0;
                            Verdict::Unknown
                        }
                    })
                    .map_err(|e| e.to_string());
                checked.record(0.0, &[(op.expected.unwrap_or(Verdict::Unknown), got)]);
            }
        }
    }
    // Batches of four under the default budgets, so requests that carry
    // a budget cap stay out of them.
    let engine = fresh_engine(snapshot.as_deref())?;
    let uncapped: Vec<(&Request, &Presentation)> = reqs
        .iter()
        .zip(&presentations)
        .filter(|(r, _)| r.budget.is_none())
        .collect();
    let mut batch_us = 0.0;
    for chunk in uncapped.chunks(4) {
        let items: Vec<Presentation> = chunk.iter().map(|(_, p)| (*p).clone()).collect();
        let s = Instant::now();
        let run = engine.solve_batch(&items);
        batch_us += s.elapsed().as_secs_f64() * 1e6;
        let got: Vec<(Verdict, Result<Verdict, String>)> = match run {
            Ok(run) => chunk
                .iter()
                .zip(&run.verdicts)
                .map(|((r, _), v)| (r.expected, Ok(verdict_of(v))))
                .collect(),
            Err(e) => chunk
                .iter()
                .map(|(r, _)| (r.expected, Err(e.to_string())))
                .collect(),
        };
        checked.record(0.0, &got);
    }

    let spans_path = dir.parent().unwrap_or(dir).join(format!(
        "{}.spans",
        dir.file_name().and_then(|f| f.to_str()).unwrap_or("trace")
    ));
    t.write(&spans_path)?;
    let self_ns = t.self_ns();
    let lane_self: f64 = t
        .spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "portfolio")
        .map(|(_, &ns)| us(ns))
        .sum();

    let per = |v: f64, d: f64| if d > 0.0 { v / d } else { 0.0 };
    let nl = lines.len() as f64;
    let out = [
        (
            "normalize.us_per_req",
            per(layers.get("normalize"), n),
            "us",
        ),
        ("deps.us_per_req", per(layers.get("deps"), n), "us"),
        ("deps.tds_per_req", per(layers.tds, n), "count"),
        ("canon.us_per_req", per(layers.get("canon"), n), "us"),
        ("cache.lookup_us", per(layers.get("cache"), n), "us"),
        ("cache.hit_share", per(layers.hits, n), "share"),
        ("fastpath.us_per_req", per(layers.get("fastpath"), n), "us"),
        ("fastpath.settle_share", per(layers.settled, n), "share"),
        (
            "fastpath.bail_us_per_req",
            per(layers.bail_us, layers.bails),
            "us",
        ),
        (
            "portfolio.us_per_solve",
            per(layers.get("portfolio"), layers.solves),
            "us",
        ),
        (
            "portfolio.self_us_per_solve",
            per(lane_self, layers.solves),
            "us",
        ),
        (
            "portfolio.solves_per_req",
            per(layers.engine_solves, n),
            "count",
        ),
        (
            "portfolio.decide_share",
            per(layers.portfolio_s * 1e6, layers.decide_us),
            "share",
        ),
        (
            "derivation.states_per_solve",
            per(layers.states, layers.solves),
            "count",
        ),
        (
            "model.nodes_per_solve",
            per(layers.nodes, layers.solves),
            "count",
        ),
        (
            "certificate.us_per_solve",
            per(layers.get("certificate"), layers.certificates),
            "us",
        ),
        ("engine.decide_us_per_req", per(layers.decide_us, n), "us"),
        (
            "engine.residual_us_per_req",
            per(layers.decide_us - layers.on_path_us, n),
            "us",
        ),
        (
            "trace.overhead_us_per_req",
            per(traced_us, traced_n) - per(plain_us, plain_n),
            "us",
        ),
        ("snapshot.load_ms", median(&loads), "ms"),
        ("snapshot.keys", keys, "count"),
        ("serve.handle_us", per(handle_us, nl), "us"),
        ("serve.transport_us", per(rtt_us - handle_us, nl), "us"),
        ("jsonl.parse_us", per(parse_us, nl), "us"),
        ("jsonl.render_us", per(render_us, nl), "us"),
        ("session.add_us", per(add_us, adds), "us"),
        ("session.ask_us", per(ask_us, asks), "us"),
        ("chase.steps_per_ask", per(steps, stepped), "count"),
        (
            "batch.us_per_item",
            per(batch_us, uncapped.len() as f64),
            "us",
        ),
        (
            "workload.identical_share",
            per(layers.identical, n),
            "share",
        ),
    ];
    for (name, value, unit) in out {
        println!("layer name={name} value={value:?} unit={unit}");
    }
    println!(
        "checked attempted={} ok={} spans={}",
        checked.attempted(),
        checked.ok,
        t.spans.len()
    );
    Ok(())
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [&str; 30] = [
    "normalize.us_per_req",
    "deps.us_per_req",
    "deps.tds_per_req",
    "canon.us_per_req",
    "cache.lookup_us",
    "cache.hit_share",
    "fastpath.us_per_req",
    "fastpath.settle_share",
    "fastpath.bail_us_per_req",
    "portfolio.us_per_solve",
    "portfolio.self_us_per_solve",
    "portfolio.solves_per_req",
    "portfolio.decide_share",
    "derivation.states_per_solve",
    "model.nodes_per_solve",
    "certificate.us_per_solve",
    "engine.decide_us_per_req",
    "engine.residual_us_per_req",
    "trace.overhead_us_per_req",
    "snapshot.load_ms",
    "snapshot.keys",
    "serve.handle_us",
    "serve.transport_us",
    "jsonl.parse_us",
    "jsonl.render_us",
    "session.add_us",
    "session.ask_us",
    "chase.steps_per_ask",
    "batch.us_per_item",
    "workload.identical_share",
];

/// Turns the traced measuring process's lines into the result object,
/// after checking the workload's defining shares.
pub fn coordinate(workload: Workload, lines: &[String]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for l in lines.iter().filter(|l| l.starts_with("layer ")) {
        let f = fields(l);
        let name = f.iter().find(|(k, _)| *k == "name").map(|(_, v)| *v);
        let unit = f.iter().find(|(k, _)| *k == "unit").map(|(_, v)| *v);
        match (name, field(&f, "value"), unit) {
            (Some(n), Some(v), Some(u)) => metrics.push((n.to_owned(), v, u.to_owned())),
            _ => return Err(format!("bad layer line: {l}")),
        }
    }
    for want in LAYER_METRICS {
        if !metrics.iter().any(|(n, _, _)| n == want) {
            return Err(format!("traced run did not report {want}"));
        }
    }
    let value = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    };
    let prop = |name, lo, hi| Property {
        name,
        value: value(name),
        lo,
        hi,
    };
    let mut props = vec![];
    match workload {
        Workload::ColdEasy => {
            props.push(prop("cache.hit_share", 0.0, 0.01));
            props.push(prop("fastpath.settle_share", 0.55, 0.8));
        }
        Workload::HardSearch => {
            props.push(prop("cache.hit_share", 0.0, 0.01));
            props.push(prop("portfolio.decide_share", 0.5, 1.0));
        }
        Workload::WarmRepeat | Workload::ServeMixed => {
            props.push(prop("cache.hit_share", 0.99, 1.0));
            props.push(prop("workload.identical_share", 0.45, 0.55));
        }
    }
    check_properties(&props)?;
    let checked = lines
        .iter()
        .find(|l| l.starts_with("checked "))
        .map(|l| fields(l))
        .ok_or("traced run reported no checked line")?;
    let attempted = field(&checked, "attempted").unwrap_or(0.0) as usize;
    let ok = field(&checked, "ok").unwrap_or(0.0) as usize;
    eprintln!(
        "traced: {} spans; engine.residual_us_per_req={:.2} of engine.decide_us_per_req={:.2} \
         ({:.0}% unattributed; ROADMAP measured about two thirds of a cold serve reply)",
        field(&checked, "spans").unwrap_or(0.0),
        value("engine.residual_us_per_req"),
        value("engine.decide_us_per_req"),
        100.0 * value("engine.residual_us_per_req") / value("engine.decide_us_per_req")
    );
    let body: Vec<String> = LAYER_METRICS
        .iter()
        .map(|name| {
            let (_, v, u) = metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .expect("checked above");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    let failed = attempted.saturating_sub(ok);
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::new();
        let p = t.push("portfolio", 0, 100, ROOT, 0);
        t.push("derivation", 10, 60, p, 0);
        t.push("model", 20, 90, p, 0);
        let leaf = t.push("certificate", 100, 130, ROOT, 0);
        let s = t.self_ns();
        assert_eq!(s[p as usize], 20, "children cover 10..90");
        assert_eq!(s[leaf as usize], 30);
    }
}
