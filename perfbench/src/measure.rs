//! The untraced measuring process: whole passes over a workload's fixed
//! request list until the run's seconds are spent, one `pass` line per
//! pass and an `end` line with the process accounting.

use std::path::Path;
use std::time::{Duration, Instant};

use template_deps::td_reduction::batch::BatchVerdict;
use template_deps::td_reduction::engine::Engine;

use crate::affinity::Cpus;
use crate::client::{checks, Server};
use crate::procfs;
use crate::stats::{Pass, Verdict};
use crate::workload::{read_requests, serve_connections, ServeRequest, Workload};

pub fn verdict_of(v: &BatchVerdict) -> Verdict {
    match v {
        BatchVerdict::Implied { .. } => Verdict::Implied,
        BatchVerdict::Refuted { .. } => Verdict::Refuted,
        BatchVerdict::Unknown { .. } => Verdict::Unknown,
    }
}

pub fn read_snapshot(dir: &Path) -> Result<Option<Vec<u8>>, String> {
    let path = dir.join("snapshot.bin");
    if !path.exists() {
        return Ok(None);
    }
    std::fs::read(&path)
        .map(Some)
        .map_err(|e| format!("cannot read snapshot: {e}"))
}

/// A fresh engine, warm-started from `snapshot` when there is one: the
/// state every pass starts from.
pub fn fresh_engine(snapshot: Option<&[u8]>) -> Result<Engine, String> {
    let engine = Engine::new();
    if let Some(bytes) = snapshot {
        engine.load_snapshot(bytes).map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// `cold_easy`, `warm_repeat`, `hard_search`: one caller in a closed loop
/// on `Engine::decide`. Every pass starts from a fresh engine (plus the
/// snapshot), so every pass is the same experiment: on the cold
/// workloads every request is the first of its class.
pub fn inproc(dir: &Path, seconds: f64) -> Result<(), String> {
    let reqs = read_requests(dir)?;
    let presentations: Vec<_> = reqs.iter().map(|r| r.inst.presentation()).collect();
    let snapshot = read_snapshot(dir)?;
    let cpus = Cpus::current();
    let start = Instant::now();
    for k in 0.. {
        cpus.visit(k);
        let engine = fresh_engine(snapshot.as_deref())?;
        let mut pass = Pass::default();
        let mut portfolio = Duration::ZERO;
        let mut identical = 0;
        let cpu0 = procfs::precise_cpu_s(None)?;
        let t_pass = Instant::now();
        for (r, p) in reqs.iter().zip(&presentations) {
            let t = Instant::now();
            let d = engine.decide_with(std::hint::black_box(p), r.budget);
            let latency = t.elapsed();
            let got = match &d {
                Ok(d) => {
                    pass.cache_hits += usize::from(d.cached);
                    portfolio += d.timings.derivation.max(d.timings.model) + d.timings.certificate;
                    Ok(verdict_of(&d.verdict))
                }
                Err(e) => Err(e.to_string()),
            };
            pass.record(latency.as_secs_f64() * 1e3, &[(r.expected, got)]);
            identical += usize::from(r.tag == "identical");
        }
        pass.wall_s = t_pass.elapsed().as_secs_f64();
        pass.cpu_s = procfs::precise_cpu_s(None)? - cpu0;
        let decide_s: f64 = pass.latencies_ms.iter().sum::<f64>() / 1e3;
        println!(
            "{} settled={} portfolio_s={:.9} decide_s={:.9} identical={}",
            pass.line(),
            engine.stats().fastpath_hits,
            portfolio.as_secs_f64(),
            decide_s,
            identical,
        );
        // Whole rounds over the CPUs, so each is measured equally often.
        if start.elapsed().as_secs_f64() >= seconds && (k + 1) % cpus.count() == 0 {
            break;
        }
    }
    println!("end rss_mb={:.6}", procfs::peak_rss_mb(None)?);
    Ok(())
}

pub fn read_serve_requests(dir: &Path, conn: usize) -> Result<Vec<ServeRequest>, String> {
    let text = std::fs::read_to_string(dir.join(format!("conn{conn}.txt")))
        .map_err(|e| format!("cannot read connection script: {e}"))?;
    text.lines()
        .map(|l| ServeRequest::from_line(l).ok_or_else(|| format!("bad request line: {l}")))
        .collect()
}

/// What one connection saw in one pass.
#[derive(Default)]
pub struct ConnPass {
    pub pass: Pass,
    pub wp: usize,
    pub wp_hits: usize,
    pub identical: usize,
}

/// Runs `reqs` once over `conn` in a closed loop, checking every reply.
pub fn run_script(conn: &mut crate::client::Conn, reqs: &[ServeRequest]) -> ConnPass {
    let mut out = ConnPass::default();
    let t_pass = Instant::now();
    for r in reqs {
        let t = Instant::now();
        let reply = conn.call(&r.line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let reply = reply.unwrap_or_else(|e| format!("{{\"ok\":false,\"transport\":\"{e}\"}}"));
        if r.expected.is_empty() {
            out.pass.record_plain(ms, reply.contains("\"ok\":true"));
        } else {
            out.pass.record(ms, &checks(&r.expected, &reply));
        }
        if r.op == "wp" {
            out.wp += 1;
            out.wp_hits += usize::from(reply.contains("\"cached\":true"));
            out.identical += usize::from(r.identical);
        }
    }
    out.pass.wall_s = t_pass.elapsed().as_secs_f64();
    out
}

/// `serve_mixed`: a `tdq serve --listen` child warm-started from the
/// snapshot, driven by one closed-loop client per connection. The
/// process accounting is the server's.
pub fn serve(dir: &Path, seconds: f64, tdq: &Path) -> Result<(), String> {
    let scripts: Vec<Vec<ServeRequest>> = (0..serve_connections())
        .map(|c| read_serve_requests(dir, c))
        .collect::<Result<_, _>>()?;
    let (server, _) = Server::start(tdq, Some(&dir.join("snapshot.bin")), scripts.len())?;
    let mut conns = scripts
        .iter()
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let pid = server.pid();
    let start = Instant::now();
    loop {
        let cpu0 = procfs::precise_cpu_s(Some(pid))?;
        let t_pass = Instant::now();
        let parts: Vec<ConnPass> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&scripts)
                .map(|(conn, script)| s.spawn(move || run_script(conn, script)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t_pass.elapsed().as_secs_f64();
        let mut pass = Pass::default();
        let (mut wp, mut wp_hits, mut identical) = (0, 0, 0);
        for p in &parts {
            pass.absorb(&p.pass);
            wp += p.wp;
            wp_hits += p.wp_hits;
            identical += p.identical;
        }
        pass.cache_hits = wp_hits;
        pass.wall_s = wall_s;
        pass.cpu_s = procfs::precise_cpu_s(Some(pid))? - cpu0;
        println!("{} wp={wp} identical={identical}", pass.line());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rss = procfs::peak_rss_mb(Some(pid))?;
    drop(conns);
    server.stop()?;
    println!("end rss_mb={rss:.6}");
    Ok(())
}

/// The workload's measuring entry point.
pub fn run(workload: Workload, dir: &Path, seconds: f64, tdq: &Path) -> Result<(), String> {
    match workload {
        Workload::ServeMixed => serve(dir, seconds, tdq),
        _ => inproc(dir, seconds),
    }
}
