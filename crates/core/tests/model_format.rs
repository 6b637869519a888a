//! Property tests for the model documents: serialization round-trips
//! exactly over the whole configuration space, and garbage — on its own
//! or grafted onto a real document — is refused by all four readers with
//! a line-numbered error instead of a panic. (`text_documents.rs` holds
//! the exhaustive line-by-line table.)

use std::sync::OnceLock;

use inspector::model_io::{from_text, to_text};
use inspector::{Checkpoint, FeatureBuilder, FeatureMode, Normalizer, SchedInspector};
use proptest::prelude::*;
use rlcore::{BinaryPolicy, PpoConfig, PpoTrainer};
use simhpc::Metric;
use tinynn::{Adam, Mlp};

fn build(mode_i: usize, metric_i: usize, seed: u64, norm: Normalizer) -> SchedInspector {
    let mode = [
        FeatureMode::Manual,
        FeatureMode::Compacted,
        FeatureMode::Native,
    ][mode_i % 3];
    let metric = [Metric::Bsld, Metric::Wait, Metric::MaxBsld][metric_i % 3];
    let features = FeatureBuilder { mode, metric, norm };
    SchedInspector::new(BinaryPolicy::new(features.dim(), seed), features)
}

proptest! {
    /// Floats are printed with the shortest representation that re-parses
    /// to the same value, so a save → load cycle is bit-exact: the whole
    /// inspector (weights included) compares equal.
    #[test]
    fn text_roundtrip_is_exact(
        mode_i in 0..3usize,
        metric_i in 0..3usize,
        seed in 0..u64::MAX,
        procs in 1u32..10_000,
        max_estimate in 1.0f64..200_000.0,
        max_wait in 1.0f64..1_000_000.0,
        max_interval in 1.0f64..10_000.0,
        max_rejections in 1u32..1_000,
    ) {
        let insp = build(mode_i, metric_i, seed, Normalizer {
            max_estimate,
            total_procs: procs,
            max_wait,
            max_interval,
            max_rejections,
        });
        let text = to_text(&insp);
        let back = from_text(&text).expect("serialized model re-parses");
        prop_assert_eq!(&insp, &back);
        // And the round-trip is a fixed point.
        prop_assert_eq!(to_text(&back), text);
    }
}

/// The first `line % (lines + 1)` lines of a valid document, the next one
/// cut `within` it, then `garbage`: the real keywords carry the fuzz past
/// the header and into every state of the reader, in the middle of a line
/// as well as between lines.
fn graft(valid: &str, line: usize, within: usize, garbage: &str) -> String {
    let lines: Vec<&str> = valid.lines().collect();
    let kept = line % (lines.len() + 1);
    let mut text: String = lines[..kept].iter().flat_map(|l| [l, "\n"]).collect();
    if let Some(next) = lines.get(kept) {
        text.push_str(&next[..within % (next.len() + 1)]);
    }
    text + garbage
}

/// A reader's verdict on a text, reduced to what all four share: the
/// line and the `Display` of its typed error.
type Verdict = Result<(), (Option<usize>, String)>;

fn verdict<T, E: std::fmt::Display>(
    parsed: Result<T, E>,
    line: fn(&E) -> Option<usize>,
) -> Verdict {
    parsed.map(drop).map_err(|e| (line(&e), e.to_string()))
}

/// A valid document and the reader it is valid for.
type Reader = (String, fn(&str) -> Verdict);

/// The four readers, each with a document of its own (built once).
fn readers() -> &'static [Reader] {
    static READERS: OnceLock<Vec<Reader>> = OnceLock::new();
    READERS.get_or_init(|| {
        let ppo = PpoTrainer::new(5, PpoConfig::default(), 7);
        let readers: Vec<Reader> = vec![
            (
                to_text(&build(1, 0, 7, Normalizer::new(256, 7_200.0))),
                |t| verdict(from_text(t), |e| e.line()),
            ),
            (Checkpoint::from_ppo(&ppo, 3, 7).to_text(), |t| {
                verdict(Checkpoint::from_text(t), |e| e.line())
            }),
            (ppo.policy.mlp().to_text(), |t| {
                verdict(Mlp::from_text(t), |e| Some(e.line))
            }),
            (Adam::new(1e-3, 40).to_text(), |t| {
                verdict(Adam::from_text(t, 40), |e| Some(e.line))
            }),
        ];
        for (valid, read) in &readers {
            assert_eq!(
                read(valid),
                Ok(()),
                "the graft starts from a valid document"
            );
        }
        readers
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// All four readers are total: on garbage alone and on garbage grafted
    /// onto their own valid document they return, and a refusal names a
    /// line of the text (or the first missing one). `Ok` is possible — the
    /// cut can land on the end and `garbage` can be blank.
    #[test]
    fn garbage_never_panics_a_reader_and_is_refused_at_a_line(
        line in 0..usize::MAX,
        within in 0..usize::MAX,
        garbage in "[a-z0-9 .\n\\-]{0,400}",
    ) {
        for (valid, read) in readers() {
            for text in [graft(valid, line, within, &garbage), garbage.clone()] {
                if let Err((line, shown)) = read(&text) {
                    let line = line.expect("parse failures carry a line number");
                    prop_assert!((1..=text.lines().count() + 1).contains(&line), "{shown}");
                    prop_assert!(shown.starts_with(&format!("line {line}: ")), "{shown}");
                }
            }
        }
    }
}
