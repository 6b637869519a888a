//! Persistence of trained inspectors.
//!
//! A saved model records the feature configuration it was trained with
//! and the policy network, so a loaded inspector is bit-identical in
//! behavior. The file is a `schedinspector-model v1` document (DESIGN.md
//! §4 "Model documents"): this module is its schema over
//! [`tinynn::text`] — a four-field preamble, then the network read in
//! place on the same reader.
//!
//! Errors are typed ([`ModelIoError`]) and a parse failure carries the
//! 1-based line it was detected at, at any depth, so a corrupt model is
//! reported as `model.txt: line 12: ...` rather than an anonymous string.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rlcore::BinaryPolicy;
use tinynn::text::{document, TextError};
use tinynn::Mlp;

use crate::agent::SchedInspector;
use crate::features::{FeatureBuilder, Normalizer};

const HEADER: &str = "schedinspector-model v1";

/// Why reading or writing a model checkpoint failed.
#[derive(Debug)]
pub enum ModelIoError {
    /// The file could not be read or written.
    Io {
        /// Path of the checkpoint.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The checkpoint text did not parse.
    Parse {
        /// 1-based line number the failure was detected at.
        line: usize,
        /// What was wrong with that line.
        msg: String,
    },
}

impl ModelIoError {
    /// The 1-based line number of a parse failure, if this is one.
    pub fn line(&self) -> Option<usize> {
        match self {
            ModelIoError::Parse { line, .. } => Some(*line),
            ModelIoError::Io { .. } => None,
        }
    }
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            ModelIoError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io { source, .. } => Some(source),
            ModelIoError::Parse { .. } => None,
        }
    }
}

impl From<TextError> for ModelIoError {
    fn from(e: TextError) -> Self {
        ModelIoError::Parse {
            line: e.line,
            msg: e.msg,
        }
    }
}

/// Serialize an inspector to the model text format.
pub fn to_text(inspector: &SchedInspector) -> String {
    let f = &inspector.features;
    let n = &f.norm;
    let mut out = String::new();
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "metric {}", f.metric.name());
    let _ = writeln!(out, "features {}", f.mode.name());
    let _ = writeln!(
        out,
        "norm {} {} {} {} {}",
        n.max_estimate, n.total_procs, n.max_wait, n.max_interval, n.max_rejections
    );
    out.push_str("policy\n");
    inspector.policy.mlp().write_text(&mut out);
    out
}

/// Parse an inspector from the model text format.
pub fn from_text(text: &str) -> Result<SchedInspector, ModelIoError> {
    document(text, |r| {
        r.marker(HEADER)?;
        let metric = r.parse("metric")?;
        let mode = r.parse("features")?;
        let norm: Vec<f64> = r.floats("norm", 5)?;
        let norm = Normalizer {
            max_estimate: norm[0],
            total_procs: norm[1] as u32,
            max_wait: norm[2],
            max_interval: norm[3],
            max_rejections: norm[4] as u32,
        };
        r.marker("policy")?;
        let mlp = Mlp::read_text(r)?;
        let features = FeatureBuilder { mode, metric, norm };
        if mlp.input_dim() != features.dim() {
            return Err(r.err(format!(
                "policy input dim {} does not match feature dim {}",
                mlp.input_dim(),
                features.dim()
            )));
        }
        let policy = BinaryPolicy::from_mlp(mlp).map_err(|e| r.err(e))?;
        Ok(SchedInspector::new(policy, features))
    })
    .map_err(ModelIoError::from)
}

/// Save an inspector to a file.
pub fn save(inspector: &SchedInspector, path: &Path) -> Result<(), ModelIoError> {
    std::fs::write(path, to_text(inspector)).map_err(|source| ModelIoError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Load an inspector from a file.
pub fn load(path: &Path) -> Result<SchedInspector, ModelIoError> {
    let text = std::fs::read_to_string(path).map_err(|source| ModelIoError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    from_text(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureMode;
    use simhpc::{Metric, Observation};
    use workload::Job;

    fn inspector() -> SchedInspector {
        let fb = FeatureBuilder {
            mode: FeatureMode::Manual,
            metric: Metric::Bsld,
            norm: Normalizer::new(128, 43_200.0),
        };
        SchedInspector::new(BinaryPolicy::new(fb.dim(), 33), fb)
    }

    fn obs() -> Observation {
        Observation {
            now: 100.0,
            job: Job::new(1, 0.0, 300.0, 600.0, 16),
            wait: 100.0,
            rejections: 2,
            max_rejections: 72,
            free_procs: 50,
            total_procs: 128,
            runnable: true,
            backfill_enabled: false,
            backfillable: 0,
            queue: vec![],
        }
    }

    #[test]
    fn roundtrip_preserves_behavior() {
        let insp = inspector();
        let text = to_text(&insp);
        let back = from_text(&text).unwrap();
        assert_eq!(insp.prob_reject(&obs()), back.prob_reject(&obs()));
        assert_eq!(insp.features, back.features);
    }

    #[test]
    fn file_roundtrip() {
        let insp = inspector();
        let dir = std::env::temp_dir().join("schedinspector-model-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        save(&insp, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(insp.prob_reject(&obs()), back.prob_reject(&obs()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn io_errors_carry_the_path() {
        let err = load(Path::new("/nonexistent/schedinspector/model.txt")).unwrap_err();
        assert!(err.line().is_none());
        assert!(err.to_string().contains("/nonexistent/schedinspector"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn rejects_dim_mismatch() {
        let text = to_text(&inspector()).replace("features manual", "features compacted");
        assert!(
            from_text(&text).is_err(),
            "compacted dim is 5, policy expects 8"
        );
    }
}
