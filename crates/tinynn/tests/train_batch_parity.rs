//! Property test: the row-block training kernels are bit-exact against the
//! per-sample definition — `Dense::forward` then `Dense::backward`, one row
//! after another — on outputs, weight gradients and bias gradients, for
//! arbitrary networks, activations, block sizes and inputs. The one-row
//! case of the kernels, `Mlp::forward_train` then `Mlp::backward`, must
//! land on the same bits too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tinynn::{Activation, BlockTape, Dense, Mlp, Tape, ROW_BLOCK};

fn net_strategy() -> impl Strategy<Value = (Vec<usize>, u64)> {
    // Widths up to 33 cover dot8's lane loop, its tail, and both at once.
    (prop::collection::vec(1usize..34, 2..6), any::<u64>())
}

fn activation() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Tanh),
        Just(Activation::Relu),
        Just(Activation::Identity),
    ]
}

/// Empty, one row, either side of a block boundary, and several blocks.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(ROW_BLOCK - 1),
        Just(ROW_BLOCK),
        Just(ROW_BLOCK + 1),
        Just(200usize),
    ]
}

fn random_matrix(rows: usize, dim: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..rows * dim)
        .map(|_| rng.random::<f32>() * 6.0 - 3.0)
        .collect()
}

/// The definition: each row forward through every layer, then backward
/// from the last layer to the first, before the next row is touched.
fn per_sample(layers: &mut [Dense], x: &[f32], grad_out: &[f32]) -> Vec<f32> {
    let (in_dim, out_dim) = (layers[0].fan_in, layers[layers.len() - 1].fan_out);
    let mut outputs = Vec::new();
    for (x, grad_out) in x.chunks_exact(in_dim).zip(grad_out.chunks_exact(out_dim)) {
        let mut acts = vec![x.to_vec()];
        let mut zs = Vec::new();
        for layer in layers.iter() {
            let (mut z, mut a) = (Vec::new(), Vec::new());
            layer.forward(&acts[acts.len() - 1], &mut z, &mut a);
            zs.push(z);
            acts.push(a);
        }
        outputs.extend_from_slice(&acts[layers.len()]);
        let mut grad = grad_out.to_vec();
        for (l, layer) in layers.iter_mut().enumerate().rev() {
            let mut grad_x = Vec::new();
            layer.backward(&acts[l], &zs[l], &acts[l + 1], &grad, &mut grad_x);
            grad = grad_x;
        }
    }
    outputs
}

/// Drive the block kernels over `x` in blocks of `block` rows (an empty
/// batch still makes one, empty, call).
fn blocked(net: &mut Mlp, x: &[f32], grad_out: &[f32], block: usize) -> Vec<f32> {
    let (in_dim, out_dim) = (net.input_dim(), net.output_dim());
    let total = x.len() / in_dim;
    let mut tape = BlockTape::default();
    let mut outputs = Vec::new();
    let mut start = 0;
    loop {
        let rows = block.min(total - start);
        let x = &x[start * in_dim..(start + rows) * in_dim];
        outputs.extend_from_slice(net.forward_train_block(x, rows, &mut tape));
        net.backward_block(
            &mut tape,
            &grad_out[start * out_dim..(start + rows) * out_dim],
        );
        start += rows;
        if start == total {
            return outputs;
        }
    }
}

fn one_row_at_a_time(net: &mut Mlp, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
    let (in_dim, out_dim) = (net.input_dim(), net.output_dim());
    let mut tape = Tape::default();
    let mut outputs = Vec::new();
    for (x, grad_out) in x.chunks_exact(in_dim).zip(grad_out.chunks_exact(out_dim)) {
        outputs.extend_from_slice(net.forward_train(x, &mut tape));
        net.backward(&tape, grad_out);
    }
    outputs
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(what: &str, want: (&[f32], &[Dense]), got: (&[f32], &[Dense])) {
    assert_eq!(bits(want.0), bits(got.0), "{what}: outputs");
    for (l, (w, g)) in want.1.iter().zip(got.1).enumerate() {
        assert_eq!(bits(&w.gw), bits(&g.gw), "{what}: gw of layer {l}");
        assert_eq!(bits(&w.gb), bits(&g.gb), "{what}: gb of layer {l}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn block_kernels_bit_exact_vs_per_sample(
        (sizes, seed) in net_strategy(),
        hidden in activation(),
        output in activation(),
        rows in row_count(),
        input_seed in any::<u64>(),
    ) {
        let net = Mlp::new(&sizes, hidden, output, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(input_seed);
        let out_dim = *sizes.last().unwrap();

        let mut reference = net.layers().to_vec();
        let mut by_block = net.clone();
        let mut whole = net.clone();
        let mut by_row = net.clone();
        // Two rounds without zeroing in between: the second accumulates
        // onto gradients that are already non-zero.
        for _ in 0..2 {
            let x = random_matrix(rows, sizes[0], &mut rng);
            let grad_out = random_matrix(rows, out_dim, &mut rng);
            let want = per_sample(&mut reference, &x, &grad_out);
            let got = blocked(&mut by_block, &x, &grad_out, ROW_BLOCK);
            assert_same("ROW_BLOCK blocks", (&want, &reference), (&got, by_block.layers()));
            let got = blocked(&mut whole, &x, &grad_out, rows.max(1));
            assert_same("one block", (&want, &reference), (&got, whole.layers()));
            let got = one_row_at_a_time(&mut by_row, &x, &grad_out);
            assert_same("forward_train + backward", (&want, &reference), (&got, by_row.layers()));
        }
    }
}

#[test]
fn a_tape_is_reusable_across_block_sizes_and_networks() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut tape = BlockTape::default();
    for (sizes, rows) in [
        (&[7usize, 32, 16, 8, 2][..], 64usize),
        (&[3, 5, 1][..], 3),
        (&[7, 32, 16, 8, 2][..], 17),
        (&[9, 4][..], 0),
    ] {
        let net = Mlp::new(sizes, Activation::Tanh, Activation::Identity, &mut rng);
        let out_dim = *sizes.last().unwrap();
        let x = random_matrix(rows, sizes[0], &mut rng);
        let grad_out = random_matrix(rows, out_dim, &mut rng);
        let mut reference = net.layers().to_vec();
        let want = per_sample(&mut reference, &x, &grad_out);
        let mut got_net = net.clone();
        let got = got_net.forward_train_block(&x, rows, &mut tape).to_vec();
        got_net.backward_block(&mut tape, &grad_out);
        assert_same("reused tape", (&want, &reference), (&got, got_net.layers()));
    }
}
