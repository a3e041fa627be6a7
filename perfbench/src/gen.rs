//! The seeded request generator. Everything the program sees is built
//! here from `--seed`: the same seed gives byte-identical requests.

use template_deps::td_semigroup::alphabet::Alphabet;
use template_deps::td_semigroup::equation::Equation;
use template_deps::td_semigroup::presentation::Presentation;

/// SplitMix64: small, fast and fully determined by its seed (the
/// benchmark must not depend on a generator whose stream could change).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so each workload
    /// and each request family draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One word-problem instance: symbol names (index = symbol), the two
/// distinguished symbols, and equations as symbol-index words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inst {
    pub names: Vec<String>,
    pub a0: usize,
    pub zero: usize,
    pub eqs: Vec<(Vec<usize>, Vec<usize>)>,
}

impl Inst {
    /// An instance over the paper's standard alphabet `A0 … A{n-1}, 0`.
    fn standard(n_regular: usize, eqs: Vec<(Vec<usize>, Vec<usize>)>) -> Self {
        let mut names: Vec<String> = (0..n_regular).map(|i| format!("A{i}")).collect();
        names.push("0".to_owned());
        Inst {
            names,
            a0: 0,
            zero: n_regular,
            eqs,
        }
    }

    fn word(&self, w: &[usize]) -> String {
        w.iter()
            .map(|&s| self.names[s].as_str())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The equations as text, e.g. `"A1 A1 = A0"`.
    pub fn eq_texts(&self) -> Vec<String> {
        self.eqs
            .iter()
            .map(|(l, r)| format!("{} = {}", self.word(l), self.word(r)))
            .collect()
    }

    /// The library value the in-process workloads decide.
    pub fn presentation(&self) -> Presentation {
        let alphabet = Alphabet::new(
            self.names.clone(),
            &self.names[self.a0],
            &self.names[self.zero],
        )
        .expect("generated names are distinct");
        let eqs = self
            .eq_texts()
            .iter()
            .map(|e| Equation::parse(e, &alphabet).expect("generated symbols"))
            .collect();
        Presentation::new(alphabet, eqs).expect("generated symbols are in range")
    }

    /// The instance-object fields of the NDJSON protocol (no braces).
    pub fn json_fields(&self) -> String {
        let strs = |v: &[String]| {
            v.iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "\"alphabet\":[{}],\"a0\":\"{}\",\"zero\":\"{}\",\"eqs\":[{}]",
            strs(&self.names),
            self.names[self.a0],
            self.names[self.zero],
            strs(&self.eq_texts())
        )
    }

    /// A disguised copy: every symbol renamed (order kept, so the reduced
    /// system is the same) and the equation list rotated by `rot`.
    pub fn disguise(&self, tag: usize, rot: usize) -> Inst {
        let mut eqs = self.eqs.clone();
        if !eqs.is_empty() {
            let n = eqs.len();
            eqs.rotate_left(rot % n);
        }
        Inst {
            names: (0..self.names.len())
                .map(|s| format!("s{tag}_{s}"))
                .collect(),
            a0: self.a0,
            zero: self.zero,
            eqs,
        }
    }
}

/// A random small presentation: 1–4 regular symbols, 1–3 equations with
/// sides of length 1–3 and 1–2 (the zero symbol drawn less often). This
/// widens the `easy_heavy_corpus` families: most draws are settled by
/// the prescreen or refuted at once, a minority need a real search.
pub fn draw_small(rng: &mut Rng) -> Inst {
    let n = rng.range(1, 4);
    let sym = |rng: &mut Rng| {
        if rng.below(6) == 0 {
            n // the zero symbol
        } else {
            rng.below(n)
        }
    };
    let m = rng.range(1, 3);
    let mut eqs = Vec::with_capacity(m);
    while eqs.len() < m {
        let l: Vec<usize> = (0..rng.range(1, 3)).map(|_| sym(rng)).collect();
        let r: Vec<usize> = (0..rng.range(1, 2)).map(|_| sym(rng)).collect();
        if l != r {
            eqs.push((l, r));
        }
    }
    Inst::standard(n, eqs)
}

/// A product chain `X·Yᵢ₊₁ = Yᵢ`, `X·Y_k = 0` (derivable in `2k` steps),
/// plus 0–2 random equations over 1–2 extra symbols
/// that never meet the chain — every draw stays derivable, and the
/// extra symbols make the classes distinct while growing the reduction.
pub fn draw_chain(rng: &mut Rng, k: usize) -> Inst {
    let extra = rng.range(1, 2);
    // Symbols: A0, X, Y1..Yk, B1..B_extra, 0.
    let x = 1;
    let y = |i: usize| 1 + i;
    let b0 = 2 + k;
    let zero = b0 + extra;
    let mut names = vec!["A0".to_owned(), "X".to_owned()];
    names.extend((1..=k).map(|i| format!("Y{i}")));
    names.extend((1..=extra).map(|i| format!("B{i}")));
    names.push("0".to_owned());
    let mut eqs = vec![(vec![x, y(1)], vec![0])];
    for i in 1..k {
        eqs.push((vec![x, y(i + 1)], vec![y(i)]));
    }
    eqs.push((vec![x, y(k)], vec![zero]));
    for _ in 0..rng.range(0, 2) {
        let b = |rng: &mut Rng| b0 + rng.below(extra);
        let l: Vec<usize> = (0..rng.range(1, 2)).map(|_| b(rng)).collect();
        let r: Vec<usize> = (0..rng.range(1, 2)).map(|_| b(rng)).collect();
        if l != r {
            eqs.push((l, r));
        }
    }
    Inst {
        names,
        a0: 0,
        zero,
        eqs,
    }
}

/// A product chain plus 1–2 random equations over the chain's own
/// symbols. Adding equations never removes a derivation, so every draw
/// stays derivable, but the extra rules widen the derivation search by a
/// seed-dependent amount.
pub fn draw_noisy_chain(rng: &mut Rng, k: usize) -> Inst {
    let mut inst = draw_chain(rng, k);
    let chain_syms = inst
        .names
        .iter()
        .filter(|n| n.starts_with(['X', 'Y']))
        .count();
    for _ in 0..rng.range(1, 2) {
        let sym = |rng: &mut Rng| 1 + rng.below(chain_syms);
        let l: Vec<usize> = (0..rng.range(1, 2)).map(|_| sym(rng)).collect();
        let r: Vec<usize> = (0..rng.range(1, 2)).map(|_| sym(rng)).collect();
        if l != r {
            inst.eqs.push((l, r));
        }
    }
    inst
}

/// A random medium presentation for the search-heavy workload: 2–4
/// regular symbols and 2–4 equations with longer sides than
/// [`draw_small`], so derivation and model searches do real work.
pub fn draw_medium(rng: &mut Rng) -> Inst {
    let n = rng.range(2, 4);
    let sym = |rng: &mut Rng| {
        if rng.below(8) == 0 {
            n
        } else {
            rng.below(n)
        }
    };
    let m = rng.range(2, 4);
    let mut eqs = Vec::with_capacity(m);
    while eqs.len() < m {
        let l: Vec<usize> = (0..rng.range(1, 3)).map(|_| sym(rng)).collect();
        let r: Vec<usize> = (0..rng.range(1, 3)).map(|_| sym(rng)).collect();
        if l != r {
            eqs.push((l, r));
        }
    }
    Inst::standard(n, eqs)
}

/// A random full TD over `R(A, B, C)` in the td-core text format: 2–3
/// antecedent rows over a small variable pool per column, and a
/// conclusion whose every variable occurs in an antecedent (full TDs keep
/// the session chase finite).
pub fn draw_full_td(rng: &mut Rng, name: &str) -> String {
    let rows = rng.range(2, 3);
    let cols = ["a", "b", "c"];
    let ante: Vec<Vec<String>> = (0..rows)
        .map(|_| {
            cols.iter()
                .map(|c| format!("{c}{}", rng.below(2)))
                .collect()
        })
        .collect();
    let concl: Vec<String> = (0..3).map(|c| ante[rng.below(rows)][c].clone()).collect();
    let row = |r: &[String]| format!("({})", r.join(", "));
    let ante_text: Vec<String> = ante.iter().map(|r| row(r)).collect();
    format!("td {name}: {} -> {}\n", ante_text.join(" "), row(&concl))
}
