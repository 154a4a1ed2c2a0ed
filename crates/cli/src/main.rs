//! `swope` — command-line interface for approximate entropy and mutual
//! information queries over CSV files and SWOPE snapshots.
//!
//! ```text
//! swope stats data.csv
//! swope entropy-topk data.csv -k 5 --epsilon 0.1
//! swope entropy-filter data.csv --eta 2.0 --algo exact
//! swope mi-topk data.csv --target income -k 5
//! swope mi-filter data.swop --target income --eta 0.3
//! swope gen cdc --scale 0.01 --out cdc.swop
//! swope convert data.csv data.swop
//! ```

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) | Err(commands::Stop::StdoutClosed) => ExitCode::SUCCESS,
        Err(commands::Stop::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", args::usage());
            ExitCode::FAILURE
        }
        Err(commands::Stop::Failed(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
