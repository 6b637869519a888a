//! `loadgen` — drive a decision server and report throughput/latency.
//!
//! `loadgen --addr HOST:PORT` sends open-loop load (optionally shaped by a
//! `--profile`) at an already running server (e.g. `schedinspector
//! serve`); the CI smoke and scenario jobs use it. Exits nonzero if no
//! decision came back. It is a client tool, not a benchmark: capacity and
//! latency are measured by `crates/spine` (`serve_open`, `serve_closed`).

use std::process::exit;

use obs::json::Json;
use scenario::LoadProfile;
use serve::loadgen;

struct Args {
    map: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut map = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // Bare flags (`--shutdown-after`) must not swallow the
                // next option as their value.
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                    _ => String::new(),
                };
                map.push((key.to_string(), value));
            }
        }
        Args { map }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `--key`'s value, or `default` when the flag is absent. A value
    /// that does not parse is a usage error, not a silent default.
    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key}: invalid value {v:?}");
                exit(2)
            }),
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen --addr HOST:PORT [options]\n\
         \n\
         --addr HOST:PORT   open-loop load against a running server\n\
         \n\
         options:\n\
           --profile FILE     typed load profile (TOML); flags below\n\
                              override its fields\n\
           --shards N         server shard count, for connection\n\
                              balancing                (default 1)\n\
           --fairness-out F   write the per-tenant fairness JSON\n\
           --qps N            target arrival rate      (default 50000)\n\
           --secs N           sending duration         (default 5)\n\
           --conns N          parallel connections     (default 4)\n\
           --trace-sample N   trace every Nth request and verify the\n\
                              decision echoes the id   (default 0 = off)\n\
           --seed N           RNG seed                 (default 0)\n\
           --label S          report label\n\
           --out FILE         write the run report JSON\n\
           --shutdown-after 1 send the shutdown verb when done"
    );
    exit(2)
}

fn write_report(path: &str, report: &Json) {
    let mut text = String::new();
    report.write_json(&mut text);
    text.push('\n');
    std::fs::write(path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(2)
    });
    println!("report -> {path}");
}

/// Resolve the effective load profile for `--addr` mode: start from
/// `--profile FILE` when given (else a steady profile), then let any
/// explicit CLI flags override the corresponding fields.
fn resolve_profile(args: &Args) -> LoadProfile {
    let mut profile = match args.get("profile") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(2)
            });
            LoadProfile::parse(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(2)
            })
        }
        None => LoadProfile::steady("open_loop", 50_000.0, 5.0, 4, 0),
    };
    profile.qps = args.num("qps", profile.qps);
    profile.secs = args.num("secs", profile.secs);
    profile.conns = args.num("conns", profile.conns);
    profile.seed = args.num("seed", profile.seed);
    profile
}

fn run_external(args: &Args, addr: &str) {
    let profile = resolve_profile(args);
    let shards = args.num("shards", 1usize);
    let trace_sample = args.num("trace-sample", 0u64);
    // Parsed before the run so a malformed value fails fast, not after it.
    let shutdown_after = args.num("shutdown-after", 0u8) != 0;
    println!(
        "open loop [{}]: {} conns, {:.0} qps target, {:.1}s",
        profile.name,
        profile.balanced_conns(shards),
        profile.qps,
        profile.secs
    );
    let (mut report, fairness) = loadgen::replay_profile(addr, &profile, shards, trace_sample)
        .unwrap_or_else(|e| {
            eprintln!("loadgen failed: {e}");
            exit(1)
        });
    if let Some(label) = args.get("label") {
        report.label = label.to_string();
    }
    println!(
        "  sent {} ok {} overloaded {} errors {}",
        report.sent, report.ok, report.overloaded, report.errors
    );
    if trace_sample > 0 {
        println!(
            "  traced {} round-tripped, {} mismatched",
            report.traced, report.trace_mismatch
        );
    }
    println!(
        "  achieved {:.0}/s, p50 {:.1}us p95 {:.1}us p99 {:.1}us",
        report.achieved_qps, report.p50_us, report.p95_us, report.p99_us
    );
    if !fairness.tenants.is_empty() {
        print!("{}", fairness.render());
    }
    if shutdown_after {
        loadgen::send_shutdown(addr).unwrap_or_else(|e| eprintln!("shutdown: {e}"));
        println!("sent shutdown");
    }
    if let Some(out) = args.get("out") {
        write_report(out, &report.to_json());
    }
    if let Some(out) = args.get("fairness-out") {
        write_report(out, &fairness.to_json());
    }
    if report.ok == 0 {
        eprintln!("no successful decisions — failing");
        exit(1);
    }
    if trace_sample > 0 && (report.trace_mismatch > 0 || report.traced == 0) {
        eprintln!("trace round-trip failed — failing");
        exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv);
    match args.get("addr") {
        Some(addr) => run_external(&args, addr),
        None => usage(),
    }
}
