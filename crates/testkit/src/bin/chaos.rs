//! Standalone chaos soak runner (the CI `chaos` job's workhorse).
//!
//! ```text
//! chaos [--fault-seed N] [--workload-seed N] [--clients N] [--conns N]
//!       [--requests N] [--shards N] [--swaps N] [--watchdog-secs N]
//!       [--log PATH] [--oracle-cases N]
//! ```
//!
//! Runs the differential oracle over `--oracle-cases` seeded traces, then
//! one chaos soak under the given seed pair. The fault log is written to
//! `--log` (default `chaos-fault-log.txt`) whether the run passes or not,
//! so a failing CI job always has the artifact. Exit codes: 0 green,
//! 1 invariant violation or oracle divergence, 2 bad usage, 3 drain hang
//! (via the in-harness watchdog).

use testkit::{case_from_seed, check_case, run_chaos, ChaosConfig};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--fault-seed N] [--workload-seed N] [--clients N] [--conns N] \
         [--requests N] [--shards N] [--swaps N] [--trace 0|1] [--watchdog-secs N] \
         [--log PATH] [--oracle-cases N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut fault_seed = 1u64;
    let mut workload_seed = 1u64;
    let mut oracle_cases = 0u64;
    let mut log_path = String::from("chaos-fault-log.txt");
    let mut cfg = ChaosConfig::new(fault_seed, workload_seed);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            usage()
        };
        match flag {
            "--fault-seed" => fault_seed = value.parse().unwrap_or_else(|_| usage()),
            "--workload-seed" => workload_seed = value.parse().unwrap_or_else(|_| usage()),
            "--clients" => cfg.clients = value.parse().unwrap_or_else(|_| usage()),
            "--conns" => cfg.conns_per_client = value.parse().unwrap_or_else(|_| usage()),
            "--requests" => cfg.requests_per_conn = value.parse().unwrap_or_else(|_| usage()),
            "--shards" => cfg.shards = value.parse().unwrap_or_else(|_| usage()),
            "--swaps" => cfg.swaps = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => cfg.trace = value.parse::<u8>().unwrap_or_else(|_| usage()) != 0,
            "--watchdog-secs" => cfg.watchdog_secs = value.parse().unwrap_or_else(|_| usage()),
            "--oracle-cases" => oracle_cases = value.parse().unwrap_or_else(|_| usage()),
            "--log" => log_path = value.clone(),
            _ => usage(),
        }
        i += 2;
    }
    let base = ChaosConfig::new(fault_seed, workload_seed);
    cfg.fault = base.fault;
    cfg.workload_seed = base.workload_seed;

    let mut failed = false;

    if oracle_cases > 0 {
        let mut diverged = 0u64;
        for case_seed in 0..oracle_cases {
            // Offset by the fault seed so different CI matrix entries
            // cover different trace populations.
            let seed = fault_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case_seed;
            if let Err(msg) = check_case(&case_from_seed(seed)) {
                eprintln!("oracle divergence at case seed {seed}:\n{msg}");
                diverged += 1;
            }
        }
        println!(
            "differential oracle: {}/{oracle_cases} cases agreed",
            oracle_cases - diverged
        );
        failed |= diverged > 0;
    }

    let report = run_chaos(&cfg);
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&log_path, &report.fault_log) {
        eprintln!("warning: could not write fault log to {log_path}: {e}");
    } else {
        println!("fault log written to {log_path}");
    }
    failed |= !report.ok();

    std::process::exit(if failed { 1 } else { 0 });
}
