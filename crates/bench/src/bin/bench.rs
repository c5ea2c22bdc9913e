//! `bench` — the JSON perf-trajectory runner.
//!
//! ```text
//! bench                  # human-readable table on stdout
//! bench --json           # BENCH_<n>.json document on stdout
//! bench --json --out BENCH_2.json
//!                        # write the document to a file (CI artifact)
//! bench --quick          # the CI profile: fewer iterations/sizes
//! bench --pr 2           # trajectory index recorded in the document
//!                        # (defaults to 0, an unlabeled local run)
//! ```
//!
//! Measures the engine variants and a calibration kernel on the
//! `workload` generators; see `schema_merge_bench::perf` for the record
//! format.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use schema_merge_bench::perf;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut pr_index: u32 = 0;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--out" => match iter.next() {
                Some(path) => out_path = Some(path.clone()),
                None => {
                    eprintln!("bench: --out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            "--pr" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(index) => pr_index = index,
                None => {
                    eprintln!("bench: --pr requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("usage: bench [--json] [--quick] [--out PATH] [--pr N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench: unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = perf::run_suite(quick);
    let rendered = if json || out_path.is_some() {
        perf::to_json(&report, pr_index)
    } else {
        perf::to_table(&report)
    };
    match out_path {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, &rendered) {
                eprintln!("bench: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench: wrote {path}");
            // Echo the table so CI logs show the numbers inline too.
            eprint!("{}", perf::to_table(&report));
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}
