//! `schedinspector` — command-line interface to the reproduction: train an
//! inspector, evaluate and analyze it, serve it, and read back what a run
//! left behind. Run it with no arguments for every subcommand and flag;
//! README.md has the quickstarts.
//!
//! One error path: every subcommand is a `fn(&Args) -> Result<(), Error>`
//! in the module of its area, declared as a [`Command`] next to the flags
//! it reads. `main` below is the only place that prints an error or
//! chooses an exit code ([`Error::exit_code`]: 2 for an invocation that
//! cannot be used as given, 1 for work that failed). A new subcommand is
//! one such function, its `Command`, and one entry in [`COMMANDS`].

// `process::exit` skips destructors (unflushed sidecars, WAL handles) and
// is a second way out; `main` returns an `ExitCode` instead.
#![deny(clippy::exit)]

mod args;
mod scenario;
mod serve;
mod store;
mod telemetry;
mod trace;
mod train;
mod world;

use std::process::ExitCode;

use args::{usage, Args, Command};
use schedinspector::Error;

const COMMANDS: &[&Command] = &[
    &train::TRAIN,
    &train::DIST_WORKER,
    &train::EVALUATE,
    &train::ANALYZE,
    &serve::SERVE,
    &serve::INFER,
    &trace::TRACE,
    &scenario::SCENARIO,
    &store::STORE,
    &telemetry::CHECK_TELEMETRY,
    &telemetry::REPORT,
];

fn run(argv: &[String]) -> Result<(), Error> {
    let cmd = argv
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.name == name));
    let cmd = cmd.ok_or_else(|| Error::Usage(usage(COMMANDS)))?;
    (cmd.run)(&Args::parse(cmd, &argv[1..])?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}
