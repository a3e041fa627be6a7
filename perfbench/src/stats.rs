//! Verdict checking and the per-pass statistics every workload reports.

use std::fmt::Write as _;

/// A verdict as the benchmark compares them: the program's answer, or
/// the answer fixed before timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Implied,
    Refuted,
    Unknown,
}

impl Verdict {
    pub fn letter(self) -> char {
        match self {
            Verdict::Implied => 'I',
            Verdict::Refuted => 'R',
            Verdict::Unknown => 'U',
        }
    }

    pub fn from_letter(c: &str) -> Option<Verdict> {
        match c {
            "I" => Some(Verdict::Implied),
            "R" => Some(Verdict::Refuted),
            "U" => Some(Verdict::Unknown),
            _ => None,
        }
    }

    pub fn decided(self) -> bool {
        self != Verdict::Unknown
    }
}

/// Whether one answer counts as correct: it arrived without error and
/// does not contradict the known answer. `Unknown` contradicts nothing
/// (budgets may run out), and a decided answer to an expected `Unknown`
/// is not checked further; an error is always a failure.
pub fn answer_ok<E>(expected: Verdict, got: &Result<Verdict, E>) -> bool {
    match got {
        Err(_) => false,
        Ok(v) => !matches!(
            (expected, v),
            (Verdict::Implied, Verdict::Refuted) | (Verdict::Refuted, Verdict::Implied)
        ),
    }
}

/// The tail rule: the highest percentile that still has at least
/// `TAIL_BEYOND` samples above it in a sample of `n`.
pub const TAIL_BEYOND: usize = 10;

/// The tail percentile for `n` samples, or `None` when `n` is too small
/// to leave [`TAIL_BEYOND`] samples beyond any percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_BEYOND).then(|| 100.0 * (n - TAIL_BEYOND) as f64 / n as f64)
}

/// The sample at the tail percentile of [`tail_percentile`]: the largest
/// value with at least [`TAIL_BEYOND`] samples sorted after it.
pub fn tail_value(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    (n > TAIL_BEYOND).then(|| sorted[n - TAIL_BEYOND - 1])
}

/// The median of a sorted, non-empty sample (mean of the middle two for
/// an even count).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The median of an unsorted, non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Counts accumulated over one pass of a workload: a fixed request list
/// run once, start to end.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// One latency per request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the whole pass, in seconds.
    pub wall_s: f64,
    /// CPU time the program's process spent during the pass, in seconds.
    pub cpu_s: f64,
    /// Requests answered without error and without contradicting the
    /// known answer.
    pub ok: usize,
    /// Verdicts checked (one per `wp`/ask, one per batch item).
    pub verdicts: usize,
    /// Of those, `Implied`/`Refuted` answers.
    pub decided: usize,
    /// Requests answered from the decision cache.
    pub cache_hits: usize,
}

impl Pass {
    /// Records one request's latency and its checked answer(s).
    pub fn record<E>(&mut self, latency_ms: f64, checks: &[(Verdict, Result<Verdict, E>)]) {
        self.latencies_ms.push(latency_ms);
        let all_ok = checks.iter().all(|(want, got)| answer_ok(*want, got));
        if all_ok {
            self.ok += 1;
        }
        for (_, got) in checks {
            self.verdicts += 1;
            if matches!(got, Ok(v) if v.decided()) {
                self.decided += 1;
            }
        }
    }

    /// Records one request that carries no verdict (a session mutation,
    /// `stats`): it is correct exactly when it succeeded.
    pub fn record_plain(&mut self, latency_ms: f64, succeeded: bool) {
        self.latencies_ms.push(latency_ms);
        if succeeded {
            self.ok += 1;
        }
    }

    /// Adds another pass's requests and counts (not its times) to this one.
    pub fn absorb(&mut self, other: &Pass) {
        self.latencies_ms.extend(&other.latencies_ms);
        self.ok += other.ok;
        self.verdicts += other.verdicts;
        self.decided += other.decided;
        self.cache_hits += other.cache_hits;
    }

    pub fn attempted(&self) -> usize {
        self.latencies_ms.len()
    }

    /// One line for the coordinator: `pass` then `key=value` fields.
    pub fn line(&self) -> String {
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let mut s = String::from("pass");
        let _ = write!(
            s,
            " attempted={} ok={} verdicts={} decided={} hits={} wall_s={:.9} cpu_s={:.9} p50_ms={:.6} tail_ms={:.6}",
            self.attempted(),
            self.ok,
            self.verdicts,
            self.decided,
            self.cache_hits,
            self.wall_s,
            self.cpu_s,
            median_sorted(&sorted),
            tail_value(&sorted).unwrap_or(f64::NAN),
        );
        s
    }
}

/// Parses the `key=value` fields of a line produced by [`Pass::line`] or
/// any other child-process report line.
pub fn fields(line: &str) -> Vec<(&str, &str)> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .collect()
}

/// The `f64` value of `key` in a parsed field list.
pub fn field(fields: &[(&str, &str)], key: &str) -> Option<f64> {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(400), Some(97.5));
        assert_eq!(tail_percentile(2000), Some(99.5));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10), None);
        let sorted: Vec<f64> = (0..400).map(f64::from).collect();
        let t = tail_value(&sorted).unwrap();
        assert_eq!(sorted.iter().filter(|&&x| x > t).count(), TAIL_BEYOND);
        assert_eq!(tail_value(&sorted[..TAIL_BEYOND]), None);
        // The smallest sample that has a tail: exactly ten beyond its minimum.
        let small: Vec<f64> = (0..=TAIL_BEYOND as u32).map(f64::from).collect();
        assert_eq!(tail_value(&small), Some(0.0));
    }

    #[test]
    fn errors_count_as_failures() {
        let mut pass = Pass::default();
        pass.record::<String>(1.0, &[(Verdict::Implied, Ok(Verdict::Implied))]);
        pass.record(
            1.0,
            &[(Verdict::Implied, Err("engine is shut down".to_owned()))],
        );
        pass.record::<String>(1.0, &[(Verdict::Refuted, Ok(Verdict::Implied))]);
        pass.record::<String>(1.0, &[(Verdict::Refuted, Ok(Verdict::Unknown))]);
        pass.record_plain(1.0, false);
        assert_eq!(pass.attempted(), 5);
        assert_eq!(pass.ok, 2, "an error and a contradiction both fail");
        assert_eq!(pass.verdicts, 4);
        assert_eq!(pass.decided, 2, "an error decides nothing");
    }

    #[test]
    fn a_batch_fails_whole_when_one_item_fails() {
        let mut pass = Pass::default();
        pass.record::<String>(
            2.0,
            &[
                (Verdict::Implied, Ok(Verdict::Implied)),
                (Verdict::Refuted, Ok(Verdict::Implied)),
            ],
        );
        assert_eq!(pass.ok, 0);
        assert_eq!(pass.verdicts, 2);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
