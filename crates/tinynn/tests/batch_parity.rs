//! Property test: the fused batched forward is bit-exact against the
//! scalar scratch path (shared `dot8` summation order) for arbitrary
//! networks, batch sizes, and inputs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tinynn::{Activation, BatchForwardScratch, ForwardScratch, Mlp};

fn net_strategy() -> impl Strategy<Value = (Vec<usize>, u64)> {
    (prop::collection::vec(1usize..34, 2..5), any::<u64>())
}

fn build_net(sizes: &[usize], seed: u64) -> Mlp {
    Mlp::new(
        sizes,
        Activation::Tanh,
        Activation::Identity,
        &mut StdRng::seed_from_u64(seed),
    )
}

fn random_rows(dim: usize, rows: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| (0..dim).map(|_| rng.random::<f32>() * 6.0 - 3.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn forward_batch_bit_exact_vs_scalar(
        (sizes, seed) in net_strategy(),
        rows in 1usize..80,
        input_seed in any::<u64>(),
    ) {
        let net = build_net(&sizes, seed);
        let inputs = random_rows(sizes[0], rows, input_seed);
        let mut batch = BatchForwardScratch::default();
        let mut single = ForwardScratch::default();
        batch.clear(sizes[0]);
        for row in &inputs {
            batch.push_row(row);
        }
        let out = net.forward_batch(&mut batch).to_vec();
        let out_dim = *sizes.last().unwrap();
        for (r, row) in inputs.iter().enumerate() {
            let want = net.forward_scratch(row, &mut single);
            let got = &out[r * out_dim..(r + 1) * out_dim];
            for (g, w) in got.iter().zip(want) {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "row {} differs: {} vs {}", r, g, w);
            }
        }
    }
}
