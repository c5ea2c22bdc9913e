//! `reproduce` — prints the paper-reproduction tables (see the README
//! section "Benchmarks and the perf trajectory").
//!
//! ```text
//! reproduce              # figures table + experiment series
//! reproduce --figures    # figures table only
//! reproduce --experiments# experiment series only
//! ```

#![forbid(unsafe_code)]

use schema_merge_bench::experiments::{default_suite, Series};
use schema_merge_bench::{all_rows, Verdict};

fn print_figures() {
    println!("== Figure reproduction (Buneman, Davidson & Kosky, EDBT 1992) ==");
    println!();
    println!("{:<6} {:<8} paper claim / measured", "id", "verdict");
    println!("{}", "-".repeat(100));
    let mut failures = 0;
    for row in all_rows() {
        let verdict = match row.verdict {
            Verdict::Pass => "PASS",
            Verdict::Fail => {
                failures += 1;
                "FAIL"
            }
        };
        println!("{:<6} {:<8} paper:    {}", row.id, verdict, row.paper);
        println!("{:<6} {:<8} measured: {}", "", "", row.measured);
    }
    println!("{}", "-".repeat(100));
    let total = all_rows().len();
    println!("{total} rows, {failures} failures");
    println!();
}

fn print_series(series: &Series) {
    println!("== {} — {} ==", series.id, series.title);
    print!("{:<18}", series.x_label);
    for column in &series.columns {
        print!(" | {column:<22}");
    }
    println!();
    println!("{}", "-".repeat(20 + 25 * series.columns.len()));
    for point in &series.points {
        print!("{:<18}", point.x);
        for value in &point.values {
            print!(" | {value:<22}");
        }
        println!();
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let figures_only = args.iter().any(|a| a == "--figures");
    let experiments_only = args.iter().any(|a| a == "--experiments");

    if !experiments_only {
        print_figures();
    }
    if !figures_only {
        for series in default_suite() {
            print_series(&series);
        }
    }
}
