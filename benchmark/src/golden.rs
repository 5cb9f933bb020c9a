//! Golden outputs: one line per op of a pass, committed under `golden/`
//! for seeds 1 and 2.
//!
//! A line is `<op> key=value ...`. Each field of the current output says
//! how it compares: [`Field::Exact`] must match the golden text byte for
//! byte (floats are written in shortest round-trip form, so this is bit
//! equality), [`Field::Approx`] within a relative 1e-9.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Relative tolerance for [`Field::Approx`].
pub const REL_TOL: f64 = 1e-9;

/// One output field.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Compared as text.
    Exact(String),
    /// Compared as a number within [`REL_TOL`].
    Approx(f64),
}

impl Field {
    /// An exactly compared float, written in shortest round-trip form.
    pub fn bits(x: f64) -> Field {
        Field::Exact(format!("{x:?}"))
    }

    fn text(&self) -> String {
        match self {
            Field::Exact(s) => s.clone(),
            Field::Approx(x) => format!("{x:?}"),
        }
    }
}

/// The fields of one op's output, in print order.
pub type Fields = Vec<(&'static str, Field)>;

/// Renders an op's golden line.
pub fn render(op: usize, fields: &Fields) -> String {
    let mut line = op.to_string();
    for (k, f) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(&f.text());
    }
    line
}

/// Compares an op's output fields with its golden line.
pub fn compare(fields: &Fields, golden: &str) -> Result<(), String> {
    let tokens: Vec<&str> = golden.split_whitespace().skip(1).collect();
    if tokens.len() != fields.len() {
        return Err(format!(
            "golden has {} fields, output {}",
            tokens.len(),
            fields.len()
        ));
    }
    for ((key, field), token) in fields.iter().zip(tokens) {
        let Some((gkey, gval)) = token.split_once('=') else {
            return Err(format!("malformed golden token {token:?}"));
        };
        if gkey != *key {
            return Err(format!("golden field {gkey} where output has {key}"));
        }
        let ok = match field {
            Field::Exact(s) => s == gval,
            Field::Approx(x) => gval.parse::<f64>().is_ok_and(|g| {
                (x - g).abs() <= REL_TOL * x.abs().max(g.abs()).max(f64::MIN_POSITIVE)
            }),
        };
        if !ok {
            return Err(format!("{key}: output {} != golden {gval}", field.text()));
        }
    }
    Ok(())
}

/// A golden file: op index → line.
#[derive(Debug, Clone, Default)]
pub struct Golden {
    lines: BTreeMap<usize, String>,
}

impl Golden {
    /// Parses a golden file's text (`#` lines are comments).
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut lines = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        {
            let op = line
                .split_whitespace()
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .ok_or_else(|| format!("golden line without op index: {line:?}"))?;
            if lines.insert(op, line.to_string()).is_some() {
                return Err(format!("golden op {op} listed twice"));
            }
        }
        Ok(Golden { lines })
    }

    /// The golden line of op `op`.
    pub fn line(&self, op: usize) -> Option<&str> {
        self.lines.get(&op).map(String::as_str)
    }

    /// Number of ops listed.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// True when no op is listed.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// Seeds whose golden file must exist.
pub const GOLDEN_SEEDS: &[u64] = &[1, 2];

/// Path of a workload's golden file for `seed`.
pub fn path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}-seed{seed}.txt"))
}

/// Loads the golden file for `seed`: required for [`GOLDEN_SEEDS`],
/// optional for any other seed.
pub fn load(workload: &str, seed: u64) -> Result<Option<Golden>, String> {
    let p = path(workload, seed);
    match std::fs::read_to_string(&p) {
        Ok(text) => Golden::parse(&text).map(Some),
        Err(_) if !GOLDEN_SEEDS.contains(&seed) => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", p.display())),
    }
}
