//! `perfbench`: the decision engine's benchmark. `run.py` builds this
//! binary and `tdq`, then calls `perfbench run`, which
//!
//! 1. draws the workload from the seed and fixes every expected answer
//!    with the sequential oracle (untimed);
//! 2. times set-up: several fresh program processes brought to their
//!    serving state, median taken;
//! 3. starts one measuring process (`perfbench measure`) that runs whole
//!    passes over the request list for the run's seconds — untraced, or
//!    with `--trace 1` the traced run of [`trace`];
//! 4. checks the workload's defining shares and prints one JSON result.

mod affinity;
mod client;
mod gen;
mod measure;
mod procfs;
mod stats;
mod trace;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use stats::{field, fields, median};
use workload::{serve_connections, Workload};

/// Set-up repetitions per run, rotated over the CPUs; `setup_s` is
/// their median.
const SETUP_REPS: usize = 10;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Opts::parse(&args[1..]).and_then(|o| coordinate(&o)),
        Some("measure") => Opts::parse(&args[1..]).and_then(|o| {
            if o.trace {
                trace::run(o.workload, &o.work, o.seconds, &o.tdq)
            } else {
                measure::run(o.workload, &o.work, o.seconds, &o.tdq)
            }
        }),
        Some("ready") => Opts::parse(&args[1..]).and_then(|o| ready(&o.work)),
        _ => Err(
            "usage: perfbench run|measure|ready --workload W --seed N --seconds S \
                  --trace 0|1 --tdq PATH --work DIR"
                .to_owned(),
        ),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tdq: PathBuf,
    work: PathBuf,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            workload: Workload::ColdEasy,
            seed: 1,
            seconds: 10.0,
            trace: false,
            tdq: PathBuf::new(),
            work: PathBuf::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {v}");
            match flag.as_str() {
                "--workload" => o.workload = Workload::parse(v).ok_or_else(bad)?,
                "--seed" => o.seed = v.parse().map_err(|_| bad())?,
                "--seconds" => o.seconds = v.parse().map_err(|_| bad())?,
                "--trace" => o.trace = v == "1",
                "--tdq" => o.tdq = PathBuf::from(v),
                "--work" => o.work = PathBuf::from(v),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(o)
    }

    fn forward(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            workload_name(self.workload).into(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            u8::from(self.trace).to_string(),
            "--tdq".into(),
            self.tdq.display().to_string(),
            "--work".into(),
            self.work.display().to_string(),
        ]
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::ColdEasy => "cold_easy",
        Workload::WarmRepeat => "warm_repeat",
        Workload::HardSearch => "hard_search",
        Workload::ServeMixed => "serve_mixed",
    }
}

/// A fresh program process brought to its serving state: an engine,
/// warm-started from the workload's snapshot when it has one.
fn ready(dir: &Path) -> Result<(), String> {
    let snapshot = measure::read_snapshot(dir)?;
    let engine = measure::fresh_engine(snapshot.as_deref())?;
    println!("ready keys={}", engine.cache().len());
    Ok(())
}

/// Spawn-to-ready time of one fresh program process, started on the
/// `k`-th CPU.
fn setup_once(o: &Opts, cpus: &affinity::Cpus, k: usize) -> Result<f64, String> {
    cpus.pin(k);
    let result = setup_pinned(o);
    cpus.restore();
    result
}

fn setup_pinned(o: &Opts) -> Result<f64, String> {
    if o.workload == Workload::ServeMixed {
        let snapshot = o.work.join("snapshot.bin");
        let (server, ready_s) =
            client::Server::start(&o.tdq, Some(&snapshot), serve_connections())?;
        server.stop()?;
        return Ok(ready_s);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let t = Instant::now();
    let mut child = Command::new(exe)
        .arg("ready")
        .args(["--work", &o.work.display().to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a ready probe: {e}"))?;
    let mut line = String::new();
    let read =
        BufReader::new(child.stdout.take().ok_or("probe stdout missing")?).read_line(&mut line);
    let ready_s = t.elapsed().as_secs_f64();
    let status = child.wait().map_err(|e| e.to_string())?;
    match read {
        Ok(_) if status.success() && line.starts_with("ready") => Ok(ready_s),
        _ => Err(format!("ready probe failed: {status} {line:?}")),
    }
}

/// Runs the measuring process and returns its report lines.
fn measure_lines(o: &Opts) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .arg("measure")
        .args(o.forward())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the measuring process: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring process failed: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect())
}

/// One metric of the result object.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A workload-defining share and the range it must stay in.
pub struct Property {
    pub name: &'static str,
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

/// Fails loudly when a defining share leaves its range: the numbers
/// would describe another workload.
pub fn check_properties(props: &[Property]) -> Result<(), String> {
    let mut line = String::from("properties:");
    for p in props {
        line.push_str(&format!(" {}={:.4} [{}, {}]", p.name, p.value, p.lo, p.hi));
    }
    eprintln!("{line}");
    for p in props {
        if !(p.lo..=p.hi).contains(&p.value) {
            return Err(format!(
                "{} = {:.4} left its range [{}, {}]: this run did not measure the workload it names",
                p.name, p.value, p.lo, p.hi
            ));
        }
    }
    Ok(())
}

/// The workload's defining shares, from summed pass counts.
fn properties(w: Workload, sum: &dyn Fn(&str) -> f64) -> Vec<Property> {
    let prop = |name, value, lo, hi| Property {
        name,
        value,
        lo,
        hi,
    };
    let hits = sum("hits") / sum("attempted");
    match w {
        Workload::ColdEasy => vec![
            prop("cache.hit_share", hits, 0.0, 0.01),
            prop(
                "fastpath.settle_share",
                sum("settled") / sum("attempted"),
                0.55,
                0.8,
            ),
        ],
        Workload::WarmRepeat => vec![
            prop("cache.hit_share", hits, 0.99, 1.0),
            prop(
                "identical_share",
                sum("identical") / sum("attempted"),
                0.45,
                0.55,
            ),
        ],
        Workload::HardSearch => vec![
            prop("cache.hit_share", hits, 0.0, 0.01),
            prop(
                "portfolio.decide_share",
                sum("portfolio_s") / sum("decide_s"),
                0.5,
                1.0,
            ),
        ],
        Workload::ServeMixed => vec![
            prop("cache.hit_share", sum("hits") / sum("wp"), 0.99, 1.0),
            prop("identical_share", sum("identical") / sum("wp"), 0.45, 0.55),
        ],
    }
}

fn coordinate(o: &Opts) -> Result<(), String> {
    std::fs::create_dir_all(&o.work).map_err(|e| format!("cannot create work dir: {e}"))?;
    let result = coordinate_in(o);
    let _ = std::fs::remove_dir_all(&o.work);
    println!("{}", result?);
    Ok(())
}

fn coordinate_in(o: &Opts) -> Result<String, String> {
    let t = Instant::now();
    let summary = workload::prepare(o.workload, o.seed, &o.work)?;
    eprintln!(
        "prepared {} seed {} in {:.2}s: {summary}",
        workload_name(o.workload),
        o.seed,
        t.elapsed().as_secs_f64()
    );
    if o.trace {
        return trace::coordinate(o.workload, &measure_lines(o)?);
    }
    let cpus = affinity::Cpus::current();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|k| setup_once(o, &cpus, k))
        .collect::<Result<_, _>>()?;
    let lines = measure_lines(o)?;
    let passes: Vec<Vec<(&str, &str)>> = lines
        .iter()
        .filter(|l| l.starts_with("pass "))
        .map(|l| fields(l))
        .collect();
    let end = lines
        .iter()
        .find(|l| l.starts_with("end "))
        .map(|l| fields(l))
        .ok_or("measuring process reported no end line")?;
    if passes.is_empty() {
        return Err("measuring process reported no pass".to_owned());
    }
    let per_pass = |key: &str| -> Vec<f64> {
        passes
            .iter()
            .map(|p| field(p, key).unwrap_or(f64::NAN))
            .collect()
    };
    let sum = |key: &str| per_pass(key).iter().sum::<f64>();
    check_properties(&properties(o.workload, &sum))?;
    let attempted = sum("attempted");
    let ok = sum("ok");
    let throughput: Vec<f64> = per_pass("attempted")
        .iter()
        .zip(per_pass("wall_s"))
        .map(|(n, s)| n / s)
        .collect();
    let cpu_per_req: Vec<f64> = per_pass("cpu_s")
        .iter()
        .zip(per_pass("attempted"))
        .map(|(s, n)| s * 1e3 / n)
        .collect();
    let rss = field(&end, "rss_mb").ok_or("no rss_mb")?;

    eprintln!(
        "passes={} requests/pass={} tail=p{}",
        passes.len(),
        per_pass("attempted")[0],
        stats::tail_percentile(per_pass("attempted")[0] as usize).unwrap_or(f64::NAN)
    );
    let metrics = [
        metric("setup_s", median(&setups), "s"),
        metric("latency_p50_ms", median(&per_pass("p50_ms")), "ms"),
        metric("latency_tail_ms", median(&per_pass("tail_ms")), "ms"),
        metric("throughput_per_s", median(&throughput), "1/s"),
        metric("cpu_ms_per_req", median(&cpu_per_req), "ms"),
        metric("decided_share", sum("decided") / sum("verdicts"), "share"),
        metric("ok_share", ok / attempted, "share"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    let failed = (attempted - ok) as usize;
    Ok(result_json(
        failed == 0,
        attempted as usize,
        failed,
        &metrics,
    ))
}
