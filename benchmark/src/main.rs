//! `benchmark` binary: see `rafda_benchmark::cli::USAGE`.

use std::time::Instant;

fn main() {
    // Taken first: `setup_s` counts from process start.
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(rafda_benchmark::cli::main_with(&args, process_start));
}
