//! `aos` — the command-line front end of the reproduction.
//!
//! ```text
//! aos attacks                          stage the §VII attack gallery
//! aos run <workload> [options]         one workload on one system
//! aos compare <workload> [--scale f]   all five systems, normalized
//! aos stats [options]                  merged pipeline telemetry counters
//! aos campaign [options]               parallel workload x system matrix
//! aos ablate [options]                 MCQ depth x BWB size geometry sweep
//! aos faults [options]                 seeded fault-injection sweep
//! aos fuzz [options]                   adversarial differential fuzzing
//! aos lint [options]                   static protocol verification
//! aos matrix [options]                 cross-policy detection matrix
//! aos table <1|2|3|4> [--scale f]      reproduce a paper table
//! aos fig <11|14-18|realworld> [--scale f]   reproduce a paper figure
//! aos pac [--allocations n] [--bits b] the Fig. 11 microbenchmark
//! aos corpus record|replay|verify      capture & replay µop traces in
//!                                      CRC-checked corpora
//! aos params                           the Table IV machine
//! aos workloads                        list the calibrated workloads
//! ```
//!
//! Exit codes (documented in `aos help`): 0 success, 1 a strict gate
//! found real findings, 2 unusable invocation or execution error.

use std::process::ExitCode;

// The print macros, shadowed for this crate: a write error is dropped
// instead of panicking. A closed pipe (`aos workloads | head -1`)
// then ends `aos` quietly, with the command's own exit code, never a
// panic's 101. Defined before the `mod` items so every module sees them.
macro_rules! print {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stdout(), $($arg)*);
    }};
}
macro_rules! println {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}
macro_rules! eprint {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = write!(std::io::stderr(), $($arg)*);
    }};
}
macro_rules! eprintln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stderr(), $($arg)*);
    }};
}

mod args;
mod commands;
mod corpus;
mod reports;

use commands::CliError;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{}", commands::usage());
        return ExitCode::from(2);
    };
    match commands::dispatch(command, &argv[1..]) {
        Ok(()) => ExitCode::SUCCESS,
        // Findings: the command ran to completion and its gate
        // reported real findings — no usage dump, the gate already
        // explained itself.
        Err(CliError::Findings(message)) => {
            eprintln!("{message}");
            ExitCode::from(1)
        }
        // Usage: the error, then the usage lines of the subcommand
        // (all of them when the command itself is unknown).
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            let lines = commands::command_usage(command);
            if lines.is_empty() {
                eprint!("{}", commands::usage());
            } else {
                eprint!("usage:\n{lines}run 'aos help' for every command\n");
            }
            ExitCode::from(2)
        }
    }
}
