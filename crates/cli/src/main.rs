//! `lacc` — command-line connected components.
//!
//! ```text
//! lacc stats    <graph>                      census: V, E, components, degrees
//! lacc cc       <graph> [--algo A] [--out F] label components serially
//! lacc cc-dist  <graph> --ranks P [--machine edison|cori] [--flat]
//!               [--trace out.json] [--trace-level L]  span-trace the run
//! lacc serve    <graph> [--ranks P] [--batches B] [--batch-size K]
//!               [--delete-every D] [--staleness F]   incremental serving
//! lacc generate <family> [--n N | --scale K] [--seed S] --out <graph>
//! lacc convert  <in> <out>                   between .mtx / .el / .bin
//! ```
//!
//! Graph formats are chosen by extension: `.mtx` (Matrix Market), `.bin`
//! (this workspace's binary format), anything else is a whitespace edge
//! list.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
