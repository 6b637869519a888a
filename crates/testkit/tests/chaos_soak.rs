//! Short seeded chaos soaks: a real `serve` server under deterministic
//! fault plans must uphold every invariant in [`testkit::chaos`]. CI runs
//! longer soaks over a seed matrix via the `chaos` binary; these keep the
//! harness honest inside `cargo test`.

use testkit::{run_chaos, ChaosConfig, FaultConfig};

#[test]
fn soak_under_standard_fault_mix() {
    for (fault_seed, workload_seed) in [(1u64, 1u64), (2, 3)] {
        let cfg = ChaosConfig {
            clients: 3,
            conns_per_client: 4,
            requests_per_conn: 5,
            ..ChaosConfig::new(fault_seed, workload_seed)
        };
        let report = run_chaos(&cfg);
        assert!(report.ok(), "{}", report.render());
    }
}

#[test]
fn soak_under_aggressive_resets() {
    // Heavy destructive faults: most connections die mid-flight. The
    // ledger and drain invariants must hold regardless.
    let cfg = ChaosConfig {
        fault: FaultConfig {
            reset: 0.15,
            torn_write: 0.10,
            accept_drop: 0.20,
            ..FaultConfig::standard(5)
        },
        workload_seed: 8,
        clients: 3,
        conns_per_client: 4,
        requests_per_conn: 5,
        shards: 2,
        watchdog_secs: 60,
        swaps: 0,
        trace: false,
    };
    let report = run_chaos(&cfg);
    assert!(report.ok(), "{}", report.render());
    assert!(!report.fault_log.is_empty());
}

#[test]
fn same_seed_pair_reproduces_the_same_fault_plan() {
    // The reproduction contract: the fault decision at every
    // (connection, op) coordinate is a pure function of the fault seed,
    // and ops advance only on deterministic events. Run the same soak
    // twice with a single client (so accept order is deterministic) and
    // require the identical fault log. Torn writes are disabled here
    // because their recorded prefix length derives from the response
    // byte count, which a `deadline_ms: 0` request can race.
    let base = ChaosConfig::new(21, 22);
    let cfg = ChaosConfig {
        fault: FaultConfig {
            torn_write: 0.0,
            ..base.fault
        },
        clients: 1,
        conns_per_client: 6,
        requests_per_conn: 4,
        ..base
    };
    let a = run_chaos(&cfg);
    let b = run_chaos(&cfg);
    assert!(a.ok(), "{}", a.render());
    assert!(b.ok(), "{}", b.render());
    assert_eq!(
        a.fault_log, b.fault_log,
        "identical seeds must replay identical fault schedules"
    );
}
