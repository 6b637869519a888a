//! The four model documents (`tinynn-mlp v1`, `tinynn-adam v1`,
//! `schedinspector-model v1`, `schedinspector-checkpoint v1`): their bytes
//! are pinned, and every line of each is checked to be read strictly.
//!
//! **Which digests hold where.** The fixture documents are filled from a
//! closed-form sequence (no `rand`), so their digests hold under the
//! devstubs *and* under crates.io `rand`, in debug and in release. The
//! trained-checkpoint digest depends on the RNG stream behind the initial
//! weights and the episode seeds: it is **devstub-only** and is skipped
//! when the `rand` in the build is not the stub.

use inspector::{
    model_io, Checkpoint, FeatureBuilder, FeatureMode, InspectorConfig, ModelIoError, Normalizer,
    SchedInspector, Trainer,
};
use policies::PolicyKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlcore::{BinaryPolicy, ValueNet};
use simhpc::Metric;
use tinynn::text::TextError;
use tinynn::{Activation, Adam, Dense, Mlp};
use workload::{profiles, synthetic};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Term `i` of the fixture sequence: exact integer arithmetic and one
/// correctly rounded division, with the floats a writer is most likely to
/// get wrong at every eleventh place.
fn term(i: usize) -> f32 {
    const EDGES: [f32; 5] = [0.0, -0.0, f32::MIN_POSITIVE, 1.0e-40, f32::MAX];
    if i % 11 == 3 {
        EDGES[(i / 11) % EDGES.len()]
    } else {
        ((i * 7919 % 2003) as f32 - 1001.0) / 977.0
    }
}

fn terms(from: usize, n: usize) -> Vec<f32> {
    (from..from + n).map(term).collect()
}

/// A network over `sizes` whose weights, biases and accumulated gradients
/// are consecutive terms starting at `from`.
fn mlp(sizes: &[usize], acts: &[Activation], from: usize) -> Mlp {
    let mut at = from;
    let mut take = |n: usize| {
        at += n;
        terms(at - n, n)
    };
    let layers = sizes
        .windows(2)
        .zip(acts)
        .map(|(io, &act)| Dense {
            fan_in: io[0],
            fan_out: io[1],
            w: take(io[0] * io[1]),
            b: take(io[1]),
            act,
            gw: take(io[0] * io[1]),
            gb: take(io[1]),
        })
        .collect();
    Mlp::from_layers(layers).expect("fixture layers chain")
}

use Activation::{Identity, Relu, Tanh};

fn plain_mlp() -> Mlp {
    mlp(&[3, 4, 3, 2], &[Tanh, Relu, Identity], 0)
}

/// Moments straight from the sequence (edge values included), `t > 0`.
fn adam_from_state(n: usize) -> Adam {
    Adam::from_state(1e-3, 0.9, 0.999, 1e-8, terms(500, n), terms(900, n), 7)
        .expect("moment vectors agree")
}

/// An optimizer that has really stepped `net` three times on the
/// fixture's gradients.
fn adam_stepped(net: &mut Mlp) -> Adam {
    let mut opt = Adam::new(1e-3, net.param_count());
    for _ in 0..3 {
        opt.step(net, 0.25);
    }
    opt
}

fn features() -> FeatureBuilder {
    FeatureBuilder {
        mode: FeatureMode::Manual,
        metric: Metric::Bsld,
        norm: Normalizer::new(128, 43_200.0),
    }
}

fn inspector() -> SchedInspector {
    let fb = features();
    let net = mlp(&[fb.dim(), 4, 2], &[Tanh, Identity], 100);
    SchedInspector::new(BinaryPolicy::from_mlp(net).expect("two logits"), fb)
}

fn checkpoint() -> Checkpoint {
    let dim = features().dim();
    let mut policy = mlp(&[dim, 4, 2], &[Tanh, Identity], 200);
    let critic = mlp(&[dim, 4, 1], &[Tanh, Identity], 300);
    let pi_opt = adam_stepped(&mut policy);
    let vf_opt = adam_from_state(critic.param_count());
    Checkpoint {
        epochs_done: 3,
        seed: 42,
        policy: BinaryPolicy::from_mlp(policy).expect("two logits"),
        critic: ValueNet::from_mlp(critic).expect("one value"),
        pi_opt,
        vf_opt,
    }
}

/// Whether the build's `rand` is `devstubs/rand` (by its first draw from
/// seed 0) — the stream every trained digest in this repository is under.
fn rand_is_devstub() -> bool {
    StdRng::seed_from_u64(0).next_u64() == 0x99ec_5f36_cb75_f2b4
}

/// Two epochs on the trace `determinism.rs` trains on.
fn trained_checkpoint_text() -> String {
    let trace = synthetic::generate(&profiles::SDSC_SP2, 96, 7);
    let mut trainer = Trainer::builder(trace)
        .policy(PolicyKind::Sjf)
        .config(InspectorConfig {
            batch_size: 6,
            seq_len: 24,
            epochs: 2,
            seed: 42,
            workers: 2,
            ..Default::default()
        })
        .build()
        .expect("valid trainer config");
    trainer.train();
    trainer.checkpoint_text(2)
}

/// Recorded by running this file's fixtures through the writers of the
/// commit before `tinynn::text` existed (`tinynn::serialize`, one
/// `format!` per float; `model_io` and `checkpoint` pasting sub-documents
/// together), debug and release alike.
#[test]
fn writers_emit_the_pinned_bytes() {
    let mut stepped_net = plain_mlp();
    let stepped = adam_stepped(&mut stepped_net);
    let pinned = [
        ("mlp", plain_mlp().to_text(), 0xb9a9_8201_e9be_0509),
        ("mlp_stepped", stepped_net.to_text(), 0xc708_2d93_668b_a4d8),
        (
            "adam_from_state",
            adam_from_state(12).to_text(),
            0x53b6_a2bf_9434_c529,
        ),
        ("adam_stepped", stepped.to_text(), 0x9a6b_7dd3_43c6_ec50),
        (
            "model",
            model_io::to_text(&inspector()),
            0xeb81_e7dd_f1ff_d027,
        ),
        ("checkpoint", checkpoint().to_text(), 0x1320_61bc_b080_e7a5),
    ];
    for (name, text, digest) in &pinned {
        let got = fnv1a64(text.as_bytes());
        assert_eq!(got, *digest, "{name}: {got:016x}\n{text}");
    }
    // The pinned checkpoint holds every edge of `term`.
    let (_, checkpoint, _) = &pinned[5];
    for edge in ["0e0", "-0e0", "1.1754944e-38", "1e-40", "3.4028235e38"] {
        assert!(checkpoint.split_whitespace().any(|t| t == edge), "{edge}");
    }
    if rand_is_devstub() {
        let got = fnv1a64(trained_checkpoint_text().as_bytes());
        assert_eq!(got, 0x8976_6132_84a0_aa3e, "trained: {got:016x}");
    } else {
        eprintln!("trained-checkpoint digest skipped: `rand` is not devstubs/rand");
    }
}

/// A typed parse error, reduced to its line and its `Display`.
type Refusal = (usize, String);

/// A document's `from_text` followed by its `to_text`.
type Reread = fn(&str) -> Result<String, Refusal>;

/// One kind of document: a valid text and how to read it back.
struct Kind {
    name: &'static str,
    text: String,
    reread: Reread,
}

fn model_error(e: ModelIoError) -> Refusal {
    (e.line().expect("a parse failure has a line"), e.to_string())
}

fn text_error(e: TextError) -> Refusal {
    (e.line, e.to_string())
}

fn kinds() -> Vec<Kind> {
    vec![
        Kind {
            name: "mlp",
            text: plain_mlp().to_text(),
            reread: |t| Mlp::from_text(t).map(|m| m.to_text()).map_err(text_error),
        },
        Kind {
            name: "adam",
            text: adam_from_state(12).to_text(),
            reread: |t| {
                Adam::from_text(t, 12)
                    .map(|a| a.to_text())
                    .map_err(text_error)
            },
        },
        Kind {
            name: "model",
            text: model_io::to_text(&inspector()),
            reread: |t| {
                model_io::from_text(t)
                    .map(|m| model_io::to_text(&m))
                    .map_err(model_error)
            },
        },
        Kind {
            name: "checkpoint",
            text: checkpoint().to_text(),
            reread: |t| {
                Checkpoint::from_text(t)
                    .map(|c| c.to_text())
                    .map_err(model_error)
            },
        },
    ]
}

fn join(lines: &[&str]) -> String {
    lines.iter().flat_map(|l| [l, "\n"]).collect()
}

/// Every way this table damages line `i` (1-based) of `lines`; each must
/// be refused *at line `i`*.
fn damage(lines: &[&str], i: usize) -> Vec<(&'static str, String)> {
    const GARBAGE: &str = "garbage line";
    let (before, line, after) = (&lines[..i - 1], lines[i - 1], &lines[i..]);
    let with = |replacement: &[&str]| join(&[before, replacement, after].concat());
    let mut out = vec![
        ("replaced with garbage", with(&[GARBAGE])),
        ("deleted", with(&[])),
        ("truncated there", join(before)),
        ("garbage inserted before", with(&[GARBAGE, line])),
        ("one more value", with(&[&format!("{line} 0")])),
    ];
    if let Some((rest, _last)) = line.rsplit_once(' ') {
        out.push(("one value fewer", with(&[rest])));
        let key = line.split(' ').next().expect("split yields one item");
        out.push(("value garbled", with(&[&format!("{key} ?")])));
        out.push(("last value garbled", with(&[&format!("{rest} x.y")])));
    }
    out
}

#[test]
fn every_line_of_every_document_is_read_strictly() {
    for kind in kinds() {
        let reread = kind.reread;
        assert_eq!(
            reread(&kind.text).as_ref(),
            Ok(&kind.text),
            "{}: from_text(to_text(x)) re-serialises byte-equal",
            kind.name
        );
        let lines: Vec<&str> = kind.text.lines().collect();
        let n = lines.len();
        let refused_at = |what: &str, text: &str, line: usize| {
            let (got, shown) =
                reread(text).expect_err(&format!("{}: line {line} {what}", kind.name));
            assert_eq!(got, line, "{}: line {line} {what}: {shown}", kind.name);
            assert!(shown.starts_with(&format!("line {line}: ")), "{shown}");
        };
        for i in 1..=n {
            for (what, text) in damage(&lines, i) {
                refused_at(what, &text, i);
            }
        }
        // Trailing content, and a second copy of the document after the
        // first, are errors at the first line past the end.
        refused_at("appended", &format!("{}trailing", kind.text), n + 1);
        refused_at("document twice", &kind.text.repeat(2), n + 1);
        // Blank lines are skipped everywhere and still counted.
        let spaced = lines.join("\n \n");
        assert_eq!(reread(&spaced).as_ref(), Ok(&kind.text), "{}", kind.name);
        let (last, _) = spaced.rsplit_once('\n').expect("more than one line");
        refused_at("after blank lines", &format!("{last}\n?"), 2 * n - 1);
    }
}

/// A count in the document is a claim, not a size: it never reserves
/// memory, never multiplies unchecked, and a wrong one is an error at
/// the line where the document stops agreeing with it.
#[test]
fn hostile_and_wrong_counts_are_errors_at_their_line() {
    let model_head =
        "schedinspector-model v1\nmetric bsld\nfeatures manual\nnorm 1 1 1 1 1\npolicy\n";
    let ckpt_head = "schedinspector-checkpoint v1\nepochs_done 0\nseed 0\npolicy\n";
    // (network text, line within it that is refused)
    let hostile = [
        ("tinynn-mlp v1\nlayers 18446744073709551615\n", 3),
        ("tinynn-mlp v1\nlayers 99999999999\n", 3),
        (
            "tinynn-mlp v1\nlayers 1\nlayer 18446744073709551615 2 tanh\nw 0\nb 0 0\n",
            3,
        ),
        (
            "tinynn-mlp v1\nlayers 1\nlayer 4294967296 4294967296 tanh\nw\nb 0\n",
            3,
        ),
        (
            "tinynn-mlp v1\nlayers 1\nlayer 0 18446744073709551615 tanh\nw\nb 0\n",
            5,
        ),
        (
            "tinynn-mlp v1\nlayers 1\nlayer 99999999999 1 tanh\nw 0\nb 0\n",
            4,
        ),
    ];
    for (net, line) in hostile {
        assert_eq!(Mlp::from_text(net).expect_err(net).line, line, "{net}");
        let model = model_io::from_text(&format!("{model_head}{net}")).expect_err(net);
        assert_eq!(model.line(), Some(5 + line), "{net}: {model}");
        let ckpt = Checkpoint::from_text(&format!("{ckpt_head}{net}")).expect_err(net);
        assert_eq!(ckpt.line(), Some(4 + line), "{net}: {ckpt}");
    }
    let adam = "tinynn-adam v1\nhyper 1 1 1 1\nt 0\nm 0\nv 0\n";
    assert_eq!(Adam::from_text(adam, usize::MAX).expect_err("m").line, 4);
    assert_eq!(Adam::from_text(adam, 2).expect_err("m").line, 4);
    assert!(Adam::from_text(adam, 1).is_ok());

    // `layers` one too many: the next `layer` line is missing; one too
    // few: the third layer is trailing content.
    let text = plain_mlp().to_text();
    let n = text.lines().count();
    let more = text.replacen("layers 3", "layers 4", 1);
    assert_eq!(Mlp::from_text(&more).expect_err("layers 4").line, n + 1);
    let fewer = text.replacen("layers 3", "layers 2", 1);
    assert_eq!(
        Mlp::from_text(&fewer).expect_err("layers 2").line,
        2 + 2 * 3 + 1
    );
    // Inside a checkpoint the same mistake is caught where the next
    // section's marker stands.
    let text = checkpoint().to_text();
    let critic_marker = 1 + text.lines().position(|l| l == "critic").expect("marker");
    let more = text.replacen("layers 2", "layers 3", 1);
    assert_eq!(
        Checkpoint::from_text(&more).expect_err("layers 3").line(),
        Some(critic_marker)
    );
    // Networks that parse but are not what the schema needs are refused
    // at the network's last line.
    let swapped = text.replacen("layer 4 2 identity", "layer 4 1 identity", 1);
    assert!(Checkpoint::from_text(&swapped).is_err());
    let model = model_io::to_text(&inspector()).replace("features manual", "features compacted");
    let err = model_io::from_text(&model).expect_err("compacted dim is 5, policy takes 8");
    assert_eq!(err.line(), Some(model.lines().count()), "{err}");
}
