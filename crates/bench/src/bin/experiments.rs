//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments              # run everything
//! experiments list         # list experiment slugs
//! experiments table1 fig3  # run a subset
//! ```
//!
//! Text tables go to stdout; CSVs to `target/experiments/`.

use std::path::PathBuf;
use std::time::Instant;
use syrk_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = experiments::all();

    if args.first().map(String::as_str) == Some("list") {
        println!("{:<12} paper artifact", "slug");
        for e in &all {
            println!("{:<12} {}", e.slug, e.artifact);
        }
        return;
    }

    let selected: Vec<_> = if args.is_empty() {
        all.iter().collect()
    } else {
        let known: Vec<&str> = all.iter().map(|e| e.slug).collect();
        for a in &args {
            if !known.contains(&a.as_str()) {
                eprintln!("experiments: unknown experiment '{a}'; try `experiments list`");
                std::process::exit(2);
            }
        }
        all.iter()
            .filter(|e| args.contains(&e.slug.to_string()))
            .collect()
    };

    let csv_dir = PathBuf::from("target/experiments");
    let started = Instant::now();
    for e in selected {
        let t0 = Instant::now();
        println!("═══ {} — {} ═══", e.slug, e.artifact);
        let tables = (e.run)().unwrap_or_else(|err| {
            eprintln!("experiments: {} failed: {err}", e.slug);
            std::process::exit(1);
        });
        for (idx, table) in tables.iter().enumerate() {
            print!("{}", table.render());
            let slug = format!("{}_{}", e.slug, idx);
            if let Err(err) = table.write_csv(&csv_dir, &slug) {
                eprintln!("experiments: cannot write CSV for {slug}: {err}");
                std::process::exit(1);
            }
            println!();
        }
        println!("({} finished in {:.2?})\n", e.slug, t0.elapsed());
    }
    println!(
        "All requested experiments done in {:.2?}; CSVs in {}",
        started.elapsed(),
        csv_dir.display()
    );
}
