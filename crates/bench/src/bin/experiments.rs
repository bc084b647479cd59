//! Prints the tables of every experiment (DESIGN.md §5).
//!
//! ```text
//! cargo run -p multival-bench --bin experiments --release          # all
//! cargo run -p multival-bench --bin experiments --release e5 e7   # some
//! ```

use multival_bench::{run, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let mut failed = false;
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            println!("\n{}\n", "=".repeat(72));
        }
        match run(id) {
            Ok(report) => print!("{report}"),
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
