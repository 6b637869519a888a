//! `scenario <validate|compile|replay>` — the scenario-engine front end.

use schedinspector::prelude::*;

use crate::args::{Args, Command};
use crate::world::{policy_factory, read_text, sim_config, write_flag};

/// * `validate` parses the spec and prints the population summary;
/// * `compile` deterministically materializes the SWF trace and the typed
///   load profile (byte-identical for equal `(spec, seed)`);
/// * `replay` runs the compiled trace through the simulator under a
///   baseline policy and prints the per-tenant fairness table.
pub const SCENARIO: Command = Command {
    name: "scenario",
    about: "<validate|compile|replay> a multi-tenant scenario spec",
    run: scenario,
    shared: &[],
    flags: &[
        "spec FILE.toml   the scenario spec",
        "seed N   compile seed (default 1)",
        "out-swf FILE.swf   compile: write the SWF trace",
        "out-profile FILE.toml   compile: write the typed load profile",
        "policy P   replay: base policy (default SJF)",
        "backfill 1   replay: enable EASY backfilling",
        "fairness-out FILE.json   replay: write the per-tenant fairness report",
    ],
};

fn scenario(args: &Args) -> Result<(), Error> {
    let sub = args.subcommand("validate|compile|replay")?;
    let spec_path = args.required("spec")?;
    let seed = args.num("seed", 1u64)?;
    let spec = ScenarioSpec::parse(&read_text(spec_path)?);
    let spec = spec.map_err(|e| Error::input(spec_path, e))?;
    println!(
        "scenario {:?}: {} procs, {:.1}h horizon, {} tenant(s), {} event(s)",
        spec.name,
        spec.procs,
        spec.horizon_s / 3600.0,
        spec.tenants.len(),
        spec.events.len()
    );
    for t in &spec.tenants {
        println!(
            "  tenant {:<12} {:>9} users, {:.1} jobs/h, {:?} arrivals",
            t.name, t.users, t.rate_per_hour, t.arrival
        );
    }
    if sub == "validate" {
        println!("{spec_path}: ok");
        return Ok(());
    }

    let compiled = ::scenario::compile(&spec, seed).map_err(|e| Error::input(spec_path, e))?;
    println!(
        "compiled (seed {seed}): {} jobs on {} procs",
        compiled.trace.len(),
        compiled.trace.procs
    );
    if sub == "compile" {
        write_flag(args, "out-swf", "swf ->", || {
            ::scenario::swf_text(&compiled)
        })?;
        return write_flag(args, "out-profile", "profile ->", || {
            compiled.profile.to_toml()
        });
    }
    let mut policy = policy_factory(args, &compiled.trace)?();
    let result = Simulator::new(compiled.trace.procs, sim_config(args)?)
        .run(&compiled.trace.jobs, policy.as_mut());
    let fairness = FairnessReport::from_sim(
        spec.name.clone(),
        &result,
        &compiled.trace.jobs,
        &compiled.tenants,
    );
    print!("{}", fairness.render());
    write_flag(args, "fairness-out", "fairness ->", || {
        let mut text = String::new();
        fairness.to_json().write_json(&mut text);
        text + "\n"
    })
}
