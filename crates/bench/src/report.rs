//! What a figure produces, and the one path that writes it out.
//!
//! Every experiment is a [`Figure`]: a name (its CSV stem under
//! `results/`) and a function from [`Scale`] to a [`Report`]. A report
//! carries the figure's table, optionally a machine-performance record
//! ([`Bench`], written as `BENCH_*.json` through [`bench_json_path`])
//! and an acceptance [`Gate`]. [`run_figure`] writes all of it and
//! enforces the gate, re-measuring host-timed gates a bounded number of
//! times before failing.

use crate::{bench_json_path, emit, Scale};
use bgp_postproc::Csv;
use bgp_trace::json::{escape, Arr, Obj};
use std::path::PathBuf;

/// Bound on gate re-measurements after the first measurement.
pub const MAX_RETRIES: usize = 2;

/// One regenerable table or figure.
pub struct Figure {
    /// CSV stem under `results/`, and the name `repro_all` selects it by.
    pub name: &'static str,
    /// Measure the figure at a scale.
    pub run: fn(Scale) -> Report,
    /// Part of the sweep a bare `repro_all` runs. The gated
    /// validation, multiplexing, service and snapshot extensions are
    /// run by name only.
    pub in_all: bool,
}

/// Everything one figure produced.
pub struct Report {
    /// The figure's table, written as `results/<name>.csv`.
    pub csv: Csv,
    /// Further tables written next to it, as `(csv stem, table)`.
    pub extra: Vec<(String, Csv)>,
    /// Machine-performance record, if the figure keeps one.
    pub bench: Option<Bench>,
    /// Acceptance gate, enforced by `repro_all --gate`.
    pub gate: Option<Gate>,
}

impl From<Csv> for Report {
    fn from(csv: Csv) -> Report {
        Report {
            csv,
            extra: Vec::new(),
            bench: None,
            gate: None,
        }
    }
}

impl Report {
    /// Attach a machine-performance record.
    pub fn with_bench(mut self, bench: Bench) -> Report {
        self.bench = Some(bench);
        self
    }

    /// Attach an acceptance gate.
    pub fn with_gate(mut self, gate: Gate) -> Report {
        self.gate = Some(gate);
        self
    }
}

/// Verdict of a figure's acceptance criteria.
pub struct Gate {
    /// One message per violated criterion; empty when the gate holds.
    pub failures: Vec<String>,
    /// Summary printed when the gate holds.
    pub ok: String,
    /// For a gate on host wall time: the BENCH key that lists every
    /// attempt's measured value, and this attempt's value. Host noise
    /// only ever inflates such a measurement, so a failing noisy gate
    /// is re-measured, and any attempt that holds bounds the true cost.
    pub noisy: Option<(&'static str, String)>,
}

impl Gate {
    /// A gate with no criteria yet; `ok` is printed when it holds.
    pub fn new(ok: impl Into<String>) -> Gate {
        Gate {
            failures: Vec::new(),
            ok: ok.into(),
            noisy: None,
        }
    }

    /// Add a criterion; `failure` describes the violation.
    pub fn require(mut self, held: bool, failure: impl FnOnce() -> String) -> Gate {
        if !held {
            self.failures.push(failure());
        }
        self
    }

    /// Mark the gate as host-timed (see [`Gate::noisy`]).
    pub fn noisy(mut self, attempts_key: &'static str, value: String) -> Gate {
        self.noisy = Some((attempts_key, value));
        self
    }
}

/// A machine-performance record: one JSON object, written to
/// [`bench_json_path`]`(file)`. Values are JSON fragments; table rows
/// come from the figure's own [`Csv`] ([`csv_rows`]), so each number is
/// formatted exactly once.
pub struct Bench {
    /// File name, e.g. `BENCH_trace.json`.
    pub file: &'static str,
    fields: Vec<(String, String)>,
}

impl Bench {
    /// Start a record with the fields every record carries: what was
    /// measured, the scale, and the host's CPU count (needed to read
    /// any wall-clock number in it).
    pub fn new(file: &'static str, benchmark: &str, scale: Scale) -> Bench {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Bench {
            file,
            fields: Vec::new(),
        }
        .str("benchmark", benchmark)
        .str("scale", &format!("{scale:?}"))
        .raw("host_cpus", host_cpus.to_string())
    }

    /// Add a string member.
    pub fn str(self, key: &str, value: &str) -> Bench {
        self.raw(key, escape(value))
    }

    /// Add a member typed like a CSV cell (see [`cell_json`]).
    pub fn cell(self, key: &str, value: &str) -> Bench {
        self.raw(key, cell_json(value))
    }

    /// Add a pre-serialized JSON member.
    pub fn raw(mut self, key: &str, json: String) -> Bench {
        self.fields.push((key.to_string(), json));
        self
    }

    /// Add every row of a two-column `name,value` table as a member.
    pub fn pairs(self, csv: &Csv) -> Bench {
        csv.rows().iter().fold(self, |b, r| b.cell(&r[0], &r[1]))
    }

    /// Add an array of row objects.
    pub fn rows(self, key: &str, rows: impl IntoIterator<Item = Obj>) -> Bench {
        let arr = rows
            .into_iter()
            .fold(Arr::new(), |a, o| a.push_raw(&o.finish()));
        self.raw(key, arr.finish())
    }

    /// The record as a JSON document.
    pub fn to_json(&self) -> String {
        self.fields
            .iter()
            .fold(Obj::new(), |o, (k, v)| o.field_raw(k, v))
            .finish()
    }

    /// Write the record to [`bench_json_path`] and return that path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = bench_json_path(self.file);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

/// The rows of a table as JSON objects keyed by its header.
pub fn csv_rows(csv: &Csv) -> Vec<Obj> {
    csv.rows()
        .iter()
        .map(|row| {
            csv.header()
                .iter()
                .zip(row)
                .fold(Obj::new(), |o, (k, v)| o.field_raw(k, &cell_json(v)))
        })
        .collect()
}

/// A CSV cell as a JSON value: numbers and booleans keep their text
/// verbatim (so the record shows the table's own rounding); anything
/// else becomes a string.
pub fn cell_json(cell: &str) -> String {
    let digits = cell.strip_prefix('-').unwrap_or(cell);
    let number = cell.parse::<f64>().is_ok_and(f64::is_finite)
        && cell
            .bytes()
            .all(|b| b.is_ascii_digit() || b"+-.eE".contains(&b))
        && digits.starts_with(|c: char| c.is_ascii_digit())
        && !(digits.starts_with('0') && digits[1..].starts_with(|c: char| c.is_ascii_digit()))
        && cell.ends_with(|c: char| c.is_ascii_digit());
    if number || cell == "true" || cell == "false" {
        cell.to_string()
    } else {
        escape(cell)
    }
}

/// Run one figure: write its tables and record and, with `gate`,
/// enforce its gate. A failing noisy gate is re-measured at most
/// [`MAX_RETRIES`] times before it fails, and the record is rewritten
/// after every attempt with every attempt's value, so a retry never
/// hides what was measured. Returns whether the gate held (always
/// `true` without `gate`).
///
/// The committed records at the repository root are Default scale, so
/// a Quick run writes its record only when `$BGP_BENCH_DIR` redirects
/// it.
pub fn run_figure(fig: &Figure, scale: Scale, gate: bool) -> bool {
    let record = scale != Scale::Quick || std::env::var_os("BGP_BENCH_DIR").is_some();
    let mut attempts = Vec::new();
    loop {
        let report = (fig.run)(scale);
        for (name, csv) in &report.extra {
            emit(name, csv);
        }
        emit(fig.name, &report.csv);
        let noisy = report.gate.as_ref().and_then(|g| g.noisy.clone());
        if let Some((_, value)) = &noisy {
            attempts.push(cell_json(value));
        }
        if let Some(mut bench) = report.bench.filter(|_| record) {
            if let Some((key, _)) = noisy {
                let list = attempts.iter().fold(Arr::new(), |a, v| a.push_raw(v));
                bench = bench.raw(key, list.finish());
            }
            let path = bench
                .write()
                .unwrap_or_else(|e| panic!("write {}: {e}", bench.file));
            println!("==== {} -> {} ====", bench.file, path.display());
        }
        let Some(verdict) = report.gate.filter(|_| gate) else {
            return true;
        };
        if verdict.failures.is_empty() {
            println!("gate ok: {}", verdict.ok);
            return true;
        }
        if verdict.noisy.is_none() || attempts.len() > MAX_RETRIES {
            for f in &verdict.failures {
                eprintln!("{}: GATE FAILED — {f}", fig.name);
            }
            return false;
        }
        eprintln!(
            "gate: {}; re-measuring ({}/{MAX_RETRIES})",
            verdict.failures.join("; "),
            attempts.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_trace::json::{parse, Value};

    #[test]
    fn cells_become_typed_json() {
        assert_eq!(cell_json("42"), "42");
        assert_eq!(cell_json("-0.25"), "-0.25");
        assert_eq!(cell_json("1e6"), "1e6");
        assert_eq!(cell_json("true"), "true");
        for text in [
            "A",
            "",
            "NaN",
            "inf",
            "007",
            "1.",
            ".5",
            "+1",
            "beab573",
            "mg dwell 4",
        ] {
            assert_eq!(cell_json(text), escape(text), "{text:?} stays a string");
        }
    }

    #[test]
    fn bench_record_lands_in_the_bench_dir_keyed_by_the_csv_header() {
        let dir = std::env::temp_dir().join(format!("bgp-bench-writer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The only test that reads or writes this variable.
        std::env::set_var("BGP_BENCH_DIR", &dir);
        let mut csv = Csv::new(["config", "wall_ms", "identical"]);
        csv.row(["off", "12.5", "true"]);
        csv.row(["on", "13", "false"]);
        let path = Bench::new("BENCH_unit.json", "writer test", Scale::Quick)
            .str("note", "a \"quoted\" note")
            .rows("configs", csv_rows(&csv))
            .write()
            .expect("write record");
        assert_eq!(path, dir.join("BENCH_unit.json"));

        let doc = parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
        assert_eq!(doc.get("scale").and_then(Value::as_str), Some("Quick"));
        assert_eq!(
            doc.get("note").and_then(Value::as_str),
            Some("a \"quoted\" note")
        );
        assert!(doc.get("host_cpus").and_then(Value::as_u64).is_some());
        let rows = doc.get("configs").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), csv.len());
        for (row, cells) in rows.iter().zip(csv.rows()) {
            let Value::Object(members) = row else {
                panic!("row is an object")
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                csv.header().iter().map(String::as_str).collect::<Vec<_>>()
            );
            assert_eq!(
                row.get("config").and_then(Value::as_str),
                Some(cells[0].as_str())
            );
        }
        assert_eq!(rows[0].get("wall_ms").and_then(Value::as_f64), Some(12.5));
        assert_eq!(rows[1].get("identical"), Some(&Value::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
