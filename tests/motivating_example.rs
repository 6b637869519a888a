//! Integration test: the paper's §2.1 motivating example (Table 1), read
//! off the rows the `experiments` crate regenerates it with — workload
//! jobs, the SJF policy, the simulator, and a scripted inspector.

use experiments::paper::table1::{cases, Case, MIN};

/// Case (b) of Fig. 1 — paper-exact numbers — without and with the
/// inspector.
fn case_b() -> (Case, Case) {
    let [_, _, base, inspected] = cases();
    assert_eq!(base.name, "Case(b)-NoInspect");
    assert_eq!(inspected.name, "Case(b)-Inspected");
    (base, inspected)
}

#[test]
fn case_b_without_inspector_matches_table1() {
    let (base, _) = case_b();
    // Table 1: wait (3+7)/2 = 5; bsld (1.6 + 3.33)/2 ≈ 2.47.
    assert!((base.wait() - 5.0).abs() < 1e-9, "wait {}", base.wait());
    assert!(
        (base.bsld() - (1.6 + 10.0 / 3.0) / 2.0).abs() < 1e-9,
        "bsld {}",
        base.bsld()
    );
    assert_eq!(base.result.rejections, 0);
}

#[test]
fn case_b_with_inspector_matches_table1() {
    let (_, inspected) = case_b();
    // Table 1: wait (4+0)/2 = 2; bsld (1.8+1)/2 = 1.4.
    assert!(
        (inspected.wait() - 2.0).abs() < 1e-9,
        "wait {}",
        inspected.wait()
    );
    assert!(
        (inspected.bsld() - 1.4).abs() < 1e-9,
        "bsld {}",
        inspected.bsld()
    );
    assert_eq!(inspected.result.rejections, 1);
}

#[test]
fn case_b_exact_timeline() {
    let (base, inspected) = case_b();
    let start = |case: &Case, id: u64| {
        let outcomes = &case.result.outcomes;
        outcomes.iter().find(|o| o.id == id).unwrap().start / MIN
    };
    assert_eq!(start(&base, 0), 0.0, "Jp starts immediately");
    assert_eq!(start(&base, 1), 3.0, "J0 waits for Jp to release nodes");
    assert_eq!(
        start(&base, 2),
        8.0,
        "J1 waits for J0 (committed selection)"
    );

    assert_eq!(
        start(&inspected, 2),
        1.0,
        "after the rejection, J1 runs at its arrival"
    );
    assert_eq!(start(&inspected, 1), 4.0, "J0 runs when J1's nodes free up");
}

/// The rejection must leave the machine idle in between — check that the
/// utilization cost of the inspection is visible but bounded, as §4.4.6
/// argues.
#[test]
fn rejection_cost_is_visible_in_utilization() {
    let (base, inspected) = case_b();
    let (base, inspected) = (base.result, inspected.result);
    // Here the inspected schedule is strictly shorter, so util improves;
    // both must stay in (0, 1].
    assert!(base.util() > 0.0 && base.util() <= 1.0);
    assert!(inspected.util() > 0.0 && inspected.util() <= 1.0);
    assert!(inspected.makespan() < base.makespan());
}
