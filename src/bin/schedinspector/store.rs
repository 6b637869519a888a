//! `store <inspect|compact>` — examine or maintain a durable run store.

use schedinspector::prelude::*;

use crate::args::{Args, Command};
use crate::world::open_store;

/// * `inspect` prints the manifest version, live segments, WAL/memtable
///   state, published model generations, and runs a strict integrity
///   check over every on-disk structure;
/// * `compact` merges all live segments into one and retires superseded
///   model generations.
pub const STORE: Command = Command {
    name: "store",
    about: "<inspect|compact> a durable run store",
    run: store,
    shared: &[],
    flags: &["dir DIR   the run store"],
};

fn store(args: &Args) -> Result<(), Error> {
    let sub = args.subcommand("inspect|compact")?;
    let dir = args.required("dir")?;
    let mut store = open_store(dir, None)?;
    if sub == "compact" {
        let retired = store.compact()?;
        println!("{dir}: compacted, {retired} segment(s) retired");
        return Ok(());
    }
    let status = store.status()?;
    println!("store {dir}");
    println!("  manifest version  {}", status.manifest_version);
    println!("  wal durable bytes {}", status.wal_durable_len);
    println!("  memtable entries  {}", status.memtable_entries);
    println!("  live keys         {}", status.live_keys);
    println!("  segments          {}", status.segments.len());
    for (id, records, bytes) in &status.segments {
        println!("    seg {id:>6}: {records} records, {bytes} bytes");
    }
    match status.model_generations.as_slice() {
        [] => println!("  models            none"),
        [.., latest] => println!(
            "  models            {} (latest generation {latest})",
            status.model_generations.len()
        ),
    }
    let records = store
        .verify()
        .map_err(|e| Error::Failed(format!("  verify            FAILED: {e}")))?;
    println!("  verify            ok ({records} records checked)");
    Ok(())
}
