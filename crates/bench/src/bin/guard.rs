//! `guard` — the in-process bench's regression gate.
//!
//! ```text
//! guard --baseline BENCH_30.json --current bench-current.json
//! ```
//!
//! Reads two schema-7 `bench --json` documents and **fails (exit 1)**
//! on either rule:
//!
//! * **Time.** Over every `compiled` record in both files, the geometric
//!   mean of (current `median_ns / calibration_ns`) ÷ (baseline
//!   `median_ns / calibration_ns`) exceeds `TIME_LIMIT`. The calibration
//!   kernel runs interleaved with each group, so a slower machine moves
//!   both sides of the quotient and a slower engine only the median. One
//!   record's calibrated median spreads too widely between runs to gate
//!   alone; the mean over all compiled records does not.
//! * **Counts.** Any record in both files whose `allocs_per_iter` or
//!   `peak_bytes` exceeds the baseline's by more than `COUNT_LIMIT`.
//!   Both are exact on one tree.
//!
//! Per-record calibrated ratios and the current `speedups` are printed
//! for information. Records only in the baseline (full-profile sizes a
//! `--quick` run skips) are reported and skipped. At least one
//! `compiled` record must match, so a wrong file never passes
//! vacuously. The parser reads the exact line-oriented document
//! `bench --json` emits (one object per line), not general JSON.

#![forbid(unsafe_code)]

use std::process::ExitCode;

const SCHEMA_VERSION: f64 = 7.0;
/// The most the compiled records' geometric-mean calibrated ratio may be.
const TIME_LIMIT: f64 = 1.10;
/// The most a record's count may grow, as a ratio.
const COUNT_LIMIT: f64 = 1.15;
/// The gated counts, in `Record::counts` order.
const COUNTS: [&str; 2] = ["allocs_per_iter", "peak_bytes"];

/// What the guard reads of one record.
#[derive(Debug)]
struct Record {
    /// `family/op @<classes>c/<arrows>a variant`.
    key: String,
    compiled: bool,
    /// `median_ns / calibration_ns`.
    calibrated: f64,
    counts: [u64; 2],
}

/// One parsed `bench --json` document.
#[derive(Debug)]
struct Document {
    records: Vec<Record>,
    /// One printable line per speedup entry.
    speedups: Vec<String>,
}

/// Extracts `"key": "value"` from a single line.
fn field_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\": \"");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts `"key": <number>` from a single line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let marker = format!("\"{key}\": ");
    let start = line.find(&marker)? + marker.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .map_or(line.len(), |i| i + start);
    line[start..end].parse().ok()
}

/// `family/op @<classes>c/<arrows>a` — the configuration part of a key.
fn config_key(line: &str) -> Option<String> {
    Some(format!(
        "{}/{} @{}c/{}a",
        field_str(line, "family")?,
        field_str(line, "op")?,
        field_num(line, "n_classes")?,
        field_num(line, "n_arrows")?
    ))
}

fn parse_record(line: &str) -> Option<Record> {
    let num = |key| field_num(line, key);
    let variant = field_str(line, "variant")?;
    Some(Record {
        key: format!("{} {variant}", config_key(line)?),
        compiled: variant == "compiled",
        calibrated: num("median_ns")? / num("calibration_ns").filter(|&ns| ns > 0.0)?,
        counts: [num(COUNTS[0])? as u64, num(COUNTS[1])? as u64],
    })
}

fn parse_speedup(line: &str) -> Option<String> {
    let (base, improved) = (field_str(line, "baseline")?, field_str(line, "improved")?);
    let speedup = field_num(line, "speedup")?;
    Some(format!(
        "{} {base}->{improved} {speedup:.2}x",
        config_key(line)?
    ))
}

/// Parses a `bench --json` document; another schema version, or a record
/// line missing a field, is an error.
fn parse(text: &str, path: &str) -> Result<Document, String> {
    if field_num(text, "bench_schema_version") != Some(SCHEMA_VERSION) {
        return Err(format!(
            "guard: {path} is not bench schema {SCHEMA_VERSION}"
        ));
    }
    let (records, speedups) = text.split_once("\"speedups\"").unwrap_or((text, ""));
    let records = records
        .lines()
        .filter(|line| line.contains("\"variant\":"))
        .map(|line| parse_record(line).ok_or(format!("guard: {path}: bad record {line}")))
        .collect::<Result<_, _>>()?;
    let speedups = speedups.lines().filter_map(parse_speedup).collect();
    Ok(Document { records, speedups })
}

/// Applies both rules (see the module docs), printing every matched
/// record and the current speedups.
fn check(baseline: &Document, current: &Document) -> Result<(), String> {
    let mut failures = Vec::new();
    let (mut log_sum, mut gated) = (0.0, 0u32);
    for base in &baseline.records {
        let Some(fresh) = current.records.iter().find(|r| r.key == base.key) else {
            eprintln!("guard: skip (not in current run): {}", base.key);
            continue;
        };
        let ratio = fresh.calibrated / base.calibrated;
        if base.compiled {
            log_sum += ratio.ln();
            gated += 1;
        }
        let mut status = "ok";
        for ((count, was), now) in COUNTS.iter().zip(base.counts).zip(fresh.counts) {
            if now as f64 > was as f64 * COUNT_LIMIT {
                status = "FAIL";
                failures.push(format!("{} {count} {was} -> {now}", base.key));
            }
        }
        let (was, now) = (base.counts, fresh.counts);
        eprintln!(
            "guard: {status:>4} {:<48} time {ratio:.2}x counts {was:?} -> {now:?}",
            base.key
        );
    }
    for speedup in &current.speedups {
        eprintln!("guard: info {speedup}");
    }
    if gated == 0 {
        return Err("guard: no compiled record matched the current run — wrong file?".into());
    }
    let aggregate = (log_sum / f64::from(gated)).exp();
    let status = if aggregate > TIME_LIMIT { "FAIL" } else { "ok" };
    eprintln!(
        "guard: {status:>4} compiled time aggregate: geometric mean of {gated} calibrated ratios \
         {aggregate:.3}x (limit {TIME_LIMIT:.2}x)"
    );
    if aggregate > TIME_LIMIT {
        failures.push(format!(
            "compiled time aggregate {aggregate:.3}x > {TIME_LIMIT:.2}x"
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "guard: {} failure(s): {}",
            failures.len(),
            failures.join("; ")
        ))
    }
}

fn run(baseline_path: &str, current_path: &str) -> Result<(), String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|err| format!("guard: {path}: {err}"))?;
        parse(&text, path)
    };
    check(&read(baseline_path)?, &read(current_path)?)
}

fn main() -> ExitCode {
    let usage = "usage: guard --baseline BENCH_A.json --current BENCH_B.json";
    let (mut baseline, mut current) = (None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline = args.next(),
            "--current" => current = args.next(),
            "--help" | "-h" => {
                println!("{usage}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("guard: unknown flag `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!("guard: --baseline and --current are both required\n{usage}");
        return ExitCode::FAILURE;
    };
    match run(&baseline, &current) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_merge_bench::perf::{to_json, BenchRecord, BenchReport, Speedup};

    fn record(op: &'static str, variant: &'static str, median_ns: u128) -> BenchRecord {
        BenchRecord {
            family: "random",
            op,
            n_classes: 200,
            n_arrows: 1209,
            variant,
            iters: 7,
            median_ns,
            calibration_ns: 100_000,
            allocs_per_iter: 1_000,
            peak_bytes: 64_000,
            throughput: 1.0,
        }
    }

    /// A small schema-7 report in the emitted shape: three compiled
    /// records, one symbolic record and its pair.
    fn report() -> BenchReport {
        BenchReport {
            records: vec![
                record("merge", "symbolic", 4_000_000),
                record("merge", "compiled", 1_000_000),
                record("complete", "compiled", 600_000),
                record("fixpoint", "compiled", 60_000),
            ],
            speedups: vec![Speedup {
                family: "random",
                op: "merge",
                n_classes: 200,
                n_arrows: 1209,
                baseline: "symbolic",
                improved: "compiled",
                speedup: 4.0,
                alloc_ratio: 1.0,
                mem_ratio: 1.0,
            }],
        }
    }

    fn document(report: &BenchReport) -> Document {
        parse(&to_json(report, 30), "test.json").expect("parses")
    }

    /// The baseline report with `edit` applied to every record it selects.
    fn edited(select: impl Fn(&BenchRecord) -> bool, edit: impl Fn(&mut BenchRecord)) -> Document {
        let mut report = report();
        report
            .records
            .iter_mut()
            .filter(|r| select(r))
            .for_each(edit);
        document(&report)
    }

    fn compiled(r: &BenchRecord) -> bool {
        r.variant == "compiled"
    }

    #[test]
    fn parses_the_emitted_document_shape() {
        let doc = document(&report());
        assert_eq!(doc.records.len(), 4);
        let merge = &doc.records[1];
        assert_eq!(merge.key, "random/merge @200c/1209a compiled");
        assert!(merge.compiled && !doc.records[0].compiled);
        assert_eq!(merge.calibrated, 10.0, "median over calibration");
        assert_eq!(merge.counts, [1_000, 64_000]);
        assert_eq!(
            doc.speedups,
            ["random/merge @200c/1209a symbolic->compiled 4.00x"]
        );
    }

    #[test]
    fn record_lines_are_not_mistaken_for_speedups() {
        let doc = document(&report());
        assert_eq!(doc.speedups.len(), 1, "records carry no speedup key");
        assert!(
            doc.records.iter().all(|r| !r.key.contains("->")),
            "speedup lines carry no variant key"
        );
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(check(&document(&report()), &document(&report())), Ok(()));
    }

    #[test]
    fn a_uniform_compiled_slowdown_fails_on_time() {
        let slower = edited(compiled, |r| r.median_ns = r.median_ns * 6 / 5);
        let err = check(&document(&report()), &slower).unwrap_err();
        assert!(err.contains("compiled time aggregate 1.200x"), "{err}");
    }

    #[test]
    fn a_slower_machine_passes() {
        let slower = edited(
            |_| true,
            |r| {
                r.median_ns = r.median_ns * 6 / 5;
                r.calibration_ns = r.calibration_ns * 6 / 5;
            },
        );
        assert_eq!(check(&document(&report()), &slower), Ok(()));
    }

    #[test]
    fn the_reference_engine_is_not_timed() {
        let slower = edited(
            |r| r.variant == "symbolic",
            |r| r.median_ns = r.median_ns * 3 / 2,
        );
        assert_eq!(check(&document(&report()), &slower), Ok(()));
    }

    #[test]
    fn one_records_allocation_growth_fails() {
        let grown = edited(|r| r.op == "fixpoint", |r| r.allocs_per_iter = 1_200);
        let err = check(&document(&report()), &grown).unwrap_err();
        assert!(
            err.contains("random/fixpoint @200c/1209a compiled allocs_per_iter 1000 -> 1200"),
            "{err}"
        );
        assert!(!err.contains("time aggregate"), "{err}");
    }

    #[test]
    fn one_records_peak_bytes_growth_fails() {
        // Every record's counts are gated, the reference engine's too.
        let grown = edited(|r| r.variant == "symbolic", |r| r.peak_bytes = 76_800);
        let err = check(&document(&report()), &grown).unwrap_err();
        assert!(
            err.contains("random/merge @200c/1209a symbolic peak_bytes 64000 -> 76800"),
            "{err}"
        );
    }

    #[test]
    fn a_v6_document_is_an_error() {
        let v6 = to_json(&report(), 12)
            .replace("\"bench_schema_version\": 7", "\"bench_schema_version\": 6");
        let err = parse(&v6, "BENCH_12.json").unwrap_err();
        assert!(err.contains("BENCH_12.json is not bench schema 7"), "{err}");
    }

    #[test]
    fn no_matching_compiled_record_is_an_error() {
        let only_reference = edited(compiled, |r| r.n_classes = 50);
        let err = check(&document(&report()), &only_reference).unwrap_err();
        assert!(err.contains("no compiled record matched"), "{err}");
    }

    #[test]
    fn degradation_detection_works_end_to_end() {
        let dir = std::env::temp_dir().join("smerge-guard-test");
        std::fs::create_dir_all(&dir).unwrap();
        let committed = dir.join("committed.json");
        let fresh_bad = dir.join("bad.json");
        let mut slower = report();
        for r in slower.records.iter_mut().filter(|r| compiled(r)) {
            r.median_ns = r.median_ns * 6 / 5;
        }
        std::fs::write(&committed, to_json(&report(), 30)).unwrap();
        std::fs::write(&fresh_bad, to_json(&slower, 31)).unwrap();

        let path = |p: &std::path::Path| p.to_str().unwrap().to_string();
        assert!(run(&path(&committed), &path(&committed)).is_ok());
        let err = run(&path(&committed), &path(&fresh_bad)).unwrap_err();
        assert!(err.contains("time aggregate"), "{err}");
    }
}
