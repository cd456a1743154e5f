//! `wavectl` binary entry point; all logic lives in the library so
//! tests can drive it directly.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match wavectl::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        // A failed gate (`lint`, `bench`) still writes its report to
        // stdout so CI can capture one stream; the exit code carries
        // the verdict.
        Err(wavectl::CliError::Failed(what, report)) => {
            print!("{report}");
            eprintln!("wavectl: {what} failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("wavectl: {e}");
            ExitCode::FAILURE
        }
    }
}
