//! `cargo run --release -p pml-bench -- [name…]`: run the named experiments
//! (all of them for no name). Experiment names are the only arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match pml_bench::run(&names) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
