//! The workspace-level error type: one enum unifying the typed errors of
//! every layer, so a caller of the facade crate can use `?` against a
//! single `Result<T, schedinspector::Error>`.
//!
//! Its user is the `schedinspector` binary: every subcommand returns
//! `Result<(), Error>`, `main` prints the error and exits with
//! [`Error::exit_code`] — nothing else in the binary exits or panics on
//! user input.

use dist::DistError;
use inspector::{ConfigError, ModelIoError, TrainError};
use obs::ObsError;
use store::StoreError;
use swf::SwfError;
use workload::TraceError;

/// Any error the SchedInspector stack can surface through the facade.
#[derive(Debug)]
pub enum Error {
    /// Parsing or writing a Standard Workload Format file failed.
    Swf(SwfError),
    /// Constructing a [`workload::JobTrace`] failed.
    Trace(TraceError),
    /// An [`inspector::InspectorConfig`] failed validation.
    Config(ConfigError),
    /// Building an [`inspector::Trainer`] failed.
    Train(TrainError),
    /// Reading or writing a model checkpoint failed.
    ModelIo(ModelIoError),
    /// An I/O error while doing the work (an output that cannot be written,
    /// a listen address that cannot be bound); the message names which.
    Io(std::io::Error),
    /// The observability layer failed (telemetry sidecar creation, metrics
    /// exposition bind) — carries the path or address that failed.
    Obs(ObsError),
    /// The durable run store failed (corrupt WAL record, checksum
    /// mismatch, manifest version skew) — carries the offending path and
    /// offset where applicable.
    Store(StoreError),
    /// Distributed training failed (coordinator bind, a stalled epoch, a
    /// worker refused at the `hello` handshake).
    Dist(DistError),
    /// The command line itself is wrong: an unknown subcommand or option,
    /// a missing or unparseable flag value.
    Usage(String),
    /// Something the command line names — a model, trace, spec, sidecar or
    /// store — cannot be read or understood. `what` says which, `source`
    /// is the layer's own error.
    Input {
        /// The operation and the path or flag it was given.
        what: String,
        /// Why it failed.
        source: Box<dyn std::error::Error + Send + Sync>,
    },
    /// The command ran and its verdict is failure: a DEGRADED sidecar, an
    /// invalid telemetry or feature line, a store that does not verify.
    Failed(String),
}

impl Error {
    /// An [`Error::Input`] for `what` (e.g. `"cannot load model.txt"`).
    pub fn input(
        what: impl Into<String>,
        source: impl Into<Box<dyn std::error::Error + Send + Sync>>,
    ) -> Self {
        Error::Input {
            what: what.into(),
            source: source.into(),
        }
    }

    /// An [`Error::Io`] that says what was being done, since a bare
    /// `io::Error` names neither the path nor the address.
    pub fn io(what: impl std::fmt::Display, e: std::io::Error) -> Self {
        Error::Io(std::io::Error::new(e.kind(), format!("{what}: {e}")))
    }

    /// The process exit code for this error: 2 when the invocation, or an
    /// input it names, cannot be used as given (fix the command line);
    /// 1 when the work itself failed.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Usage(_)
            | Error::Input { .. }
            | Error::Config(_)
            | Error::Train(_)
            | Error::Trace(_)
            | Error::Obs(_) => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Swf(e) => write!(f, "SWF: {e}"),
            Error::Trace(e) => write!(f, "trace: {e}"),
            Error::Config(e) => write!(f, "config: {e}"),
            Error::Train(e) => write!(f, "training: {e}"),
            Error::ModelIo(e) => write!(f, "model: {e}"),
            Error::Io(e) => write!(f, "I/O: {e}"),
            Error::Obs(e) => write!(f, "observability: {e}"),
            Error::Store(e) => write!(f, "store: {e}"),
            Error::Dist(e) => write!(f, "distributed training: {e}"),
            Error::Usage(msg) | Error::Failed(msg) => f.write_str(msg),
            Error::Input { what, source } => write!(f, "{what}: {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Swf(e) => Some(e),
            Error::Trace(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Train(e) => Some(e),
            Error::ModelIo(e) => Some(e),
            Error::Io(e) => Some(e),
            Error::Obs(e) => Some(e),
            Error::Store(e) => Some(e),
            Error::Dist(e) => Some(e),
            Error::Input { source, .. } => Some(source.as_ref()),
            Error::Usage(_) | Error::Failed(_) => None,
        }
    }
}

/// `impl From<layer error> for Error`, one per wrapped layer.
macro_rules! from_layer {
    ($($variant:ident($layer:ty)),* $(,)?) => {$(
        impl From<$layer> for Error {
            fn from(e: $layer) -> Self {
                Error::$variant(e)
            }
        }
    )*};
}

from_layer!(
    Swf(SwfError),
    Trace(TraceError),
    Config(ConfigError),
    Train(TrainError),
    ModelIo(ModelIoError),
    Io(std::io::Error),
    Obs(ObsError),
    Store(StoreError),
    Dist(DistError),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_converts_displays_with_context_and_has_an_exit_code() {
        let io = |msg| std::io::Error::new(std::io::ErrorKind::PermissionDenied, msg);
        let parse = || ModelIoError::Parse {
            line: 4,
            msg: "bad norm value".into(),
        };
        let sidecar = ObsError::Sidecar {
            path: "run.jsonl".into(),
            source: io("denied"),
        };
        let checksum = StoreError::ChecksumMismatch {
            path: "wal.log".into(),
            offset: 128,
            expected: 1,
            actual: 2,
        };
        let check = |e: Error, starts: &str, names: &str, code: u8| {
            let text = e.to_string();
            assert!(text.starts_with(starts) && text.contains(names), "{text}");
            assert_eq!(e.exit_code(), code, "{text}");
        };
        check(
            ConfigError::ZeroBatchSize.into(),
            "config:",
            "batch_size",
            2,
        );
        let empty = TrainError::EmptyTrace { trace: "t".into() };
        check(empty.into(), "training:", "t", 2);
        check(TraceError::EmptyMachine.into(), "trace:", "", 2);
        check(parse().into(), "model: line 4:", "bad norm value", 1);
        check(io("gone").into(), "I/O:", "gone", 1);
        check(sidecar.into(), "observability:", "run.jsonl", 2);
        check(checksum.into(), "store:", "wal.log", 1);
        let refused = DistError::Remote("world mismatch".into());
        check(refused.into(), "distributed training:", "world", 1);
        let usage = Error::Usage("train: unknown option --epoch".into());
        check(usage, "train: unknown", "--epoch", 2);
        let input = Error::input("cannot load m.txt", parse());
        check(input, "cannot load m.txt: line 4:", "bad norm", 2);
        check(
            Error::input("cannot read a.toml", "gone"),
            "cannot read a.toml: gone",
            "",
            2,
        );
        check(
            Error::Failed("1 sidecar(s) DEGRADED".into()),
            "1 sidecar",
            "DEGRADED",
            1,
        );
    }

    #[test]
    fn sources_chain_to_the_underlying_error() {
        use std::error::Error as _;
        let e: Error = TrainError::Config(ConfigError::ZeroSeqLen).into();
        let source = e.source().expect("has source");
        assert!(source.to_string().contains("config"));
        let e = Error::input("cannot read spec.toml", "gone");
        assert_eq!(e.source().expect("has source").to_string(), "gone");
    }
}
