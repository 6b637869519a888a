//! The benchmark's declared vocabulary: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats these
//! tables; a unit test holds the two equal.

/// One benchmark workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const TRAIN_LOCAL: &str = "train_local";
pub const TRAIN_DIST: &str = "train_dist";
pub const EVAL_REPLAY: &str = "eval_replay";
pub const SERVE_OPEN: &str = "serve_open";
pub const SERVE_CLOSED: &str = "serve_closed";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: TRAIN_LOCAL,
        why: "in-process PPO training on SDSC-SP2 under SJF: the PPO update dominates, the simulator barely shows",
    },
    Workload {
        name: TRAIN_DIST,
        why: "same training through the coordinator, 2 workers, binary frames, WAL journal: dist and store carry half the wall",
    },
    Workload {
        name: EVAL_REPLAY,
        why: "flash-crowd trace replayed under three policies, base and inspected: simulator and policy select do the work, networks none",
    },
    Workload {
        name: SERVE_OPEN,
        why: "open loop, Poisson 10k req/s on 2 connections: batches of one, so parse, wake-ups and writes set the latency",
    },
    Workload {
        name: SERVE_CLOSED,
        why: "closed loop, 2 connections x 1024 in flight: saturation, so micro-batching, the ring and forward_batch set the capacity",
    },
];

/// Direction in which a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. `bound` is the
/// share of the parent's median by which it may worsen before a change
/// counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const WORK_PER_S: &str = "work_per_s";
pub const LAT_P50_US: &str = "lat_p50_us";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

/// Every workload reports every one of these (the driver's contract), so
/// each is defined per workload: the unit of work is an episode (train), a
/// simulated job (replay) or a decision (serve); the latency sample is one
/// epoch, one scheduling point or one request. `README.md` has the table.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: LAT_P50_US,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric of the traced pass. No bound: it explains an
/// end-to-end move, it does not gate.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// A layer a workload does not call reports 0 for that layer's metrics.
pub const PER_LAYER: [Layer; 58] = [
    lower("swf.parse_ns_per_job", "ns"),
    lower("swf.write_ns_per_job", "ns"),
    lower("scenario.compile_s", "s"),
    higher("scenario.jobs", "count"),
    lower("scenario.fairness_s", "s"),
    lower("workload.sequence_ns", "ns"),
    lower("simhpc.replay_s", "s"),
    higher("simhpc.jobs", "count"),
    higher("simhpc.inspections", "count"),
    higher("simhpc.rejections", "count"),
    higher("simhpc.inspections_per_s", "1/s"),
    lower("simhpc.point_p90_us", "us"),
    lower("policies.select_s", "s"),
    lower("policies.select_ns.q16", "ns"),
    lower("policies.select_ns.q4096", "ns"),
    lower("core.plan_s", "s"),
    lower("core.rollout_s", "s"),
    lower("core.baseline_s", "s"),
    higher("core.baseline_hit_rate", "ratio"),
    lower("core.inspect_s", "s"),
    lower("core.features_ns_per_point", "ns"),
    lower("core.checkpoint_text_s", "s"),
    lower("rlcore.update_s", "s"),
    lower("rlcore.update_ns_per_step", "ns"),
    higher("rlcore.steps", "count"),
    lower("rlcore.update_share", "ratio"),
    lower("tinynn.forward_ns_per_row.b1", "ns"),
    lower("tinynn.forward_ns_per_row.b16", "ns"),
    lower("tinynn.train_step_ns", "ns"),
    lower("dist.epoch_overhead_ms", "ms"),
    lower("dist.encode_ns_per_episode", "ns"),
    lower("dist.decode_ns_per_episode", "ns"),
    lower("dist.frame_bytes_per_episode", "B"),
    lower("dist.reassignments", "count"),
    lower("dist.duplicates", "count"),
    lower("store.commit_ms", "ms"),
    lower("store.bytes_per_epoch", "B"),
    lower("store.wal_bytes", "B"),
    lower("serve.parse_ns", "ns"),
    lower("serve.encode_ns", "ns"),
    lower("serve.engine_rtt_us", "us"),
    lower("serve.queue_us", "us"),
    lower("serve.batch_wait_us", "us"),
    lower("serve.forward_us", "us"),
    lower("serve.write_us", "us"),
    lower("serve.remainder_us", "us"),
    higher("serve.mean_batch", "count"),
    higher("serve.batches", "count"),
    lower("serve.lat_p90_us", "us"),
    lower("serve.lat_p99_us", "us"),
    lower("serve.lat_p999_us", "us"),
    lower("serve.gen_late_p99_us", "us"),
    higher("serve.sent", "count"),
    higher("serve.ok", "count"),
    lower("serve.overloaded", "count"),
    lower("serve.errors", "count"),
    lower("spine.trace_overhead", "ratio"),
    lower("spine.unattributed_share", "ratio"),
];

/// Names, units and `why` lines are restricted so that every consumer
/// (shell, JSON, file names) can take them verbatim.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

pub fn is_valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{parse, Json};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(is_valid_name(m.name) && is_valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(is_valid_name(m.name) && is_valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(!is_valid_name(""));
        assert!(!is_valid_name(".hidden"));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_unit("µs"));
    }

    fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
        v.get(key)
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
    }

    fn text(v: &Json, key: &str) -> String {
        field(v, key).as_str().expect("string").to_string()
    }

    /// The binary emits exactly the tables above (see `report::Outcome`),
    /// so equality with the committed file means the driver and the
    /// binary agree on every name, unit, direction and bound.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).unwrap();

        let workloads: Vec<(String, String)> = field(&doc, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(String, String, String, f64)> = field(&doc, "end_to_end")
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    field(m, "bound").as_f64().unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = field(&doc, "per_layer")
            .as_array()
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(layers, want);

        assert_eq!(
            field(&doc, "run_seconds").as_f64().unwrap(),
            crate::RUN_SECONDS as f64
        );
        let paths: Vec<&str> = field(&doc, "paths")
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["crates/spine"]);
    }
}
