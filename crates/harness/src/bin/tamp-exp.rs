//! `tamp-exp` — regenerate the paper's tables and figures.
//!
//! `tamp-exp --help` lists the subcommands (generated from
//! [`tamp_harness::registry::EXPERIMENTS`]; the table in the crate docs
//! says which figure each one is) and every option (generated from
//! [`tamp_harness::registry::FLAGS`]).

use tamp_harness::registry::{self, die, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, args) = Args::parse(&argv).unwrap_or_else(|e| die(&e));
    match registry::dispatch(&cmd, &args) {
        Some(code) => std::process::exit(code),
        None => die(&format!("unknown command {cmd}; try --help")),
    }
}
