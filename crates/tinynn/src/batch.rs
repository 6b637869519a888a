//! Fused batched inference.
//!
//! The serving hot path packs a micro-batch of feature vectors into one
//! contiguous row-major matrix and pushes the whole batch through the
//! network layer by layer. Compared with calling [`Mlp::forward_scratch`]
//! per request this amortises the weight-matrix traffic: each weight row is
//! loaded once per *block of rows* instead of once per request.
//!
//! The inner product is the 8-lane unrolled [`dot8`], which is also what
//! [`crate::Dense::forward`] uses — both paths therefore share one
//! summation order and the fused batch forward is **bit-exact** against
//! `forward_scratch`, not merely close. Std-only, no intrinsics: the lanes
//! are plain `f32` accumulators that the compiler can keep in registers
//! (and auto-vectorise where the target allows).

use crate::mlp::Mlp;

/// Rows per cache block in the fused matmul. Inside a block the output
/// loop is outermost, so one weight row (≤ 32 floats for the paper
/// network) stays hot in L1 while it is applied to every row of the block;
/// the block bound keeps the input rows resident too.
const ROW_BLOCK: usize = 64;

/// 8-lane unrolled dot product.
///
/// Eight independent accumulator lanes break the sequential-add dependency
/// chain, then reduce pairwise in a fixed order. The tail (`len % 8`) is
/// added sequentially after the lane reduction. Every caller that needs
/// bit-identical results with another path must funnel through this
/// function — the summation order *is* the contract.
#[inline]
pub fn dot8(w: &[f32], x: &[f32]) -> f32 {
    debug_assert_eq!(w.len(), x.len());
    let mut lanes = [0.0f32; 8];
    let wc = w.chunks_exact(8);
    let xc = x.chunks_exact(8);
    let (wr, xr) = (wc.remainder(), xc.remainder());
    for (wv, xv) in wc.zip(xc) {
        for (lane, (wi, xi)) in lanes.iter_mut().zip(wv.iter().zip(xv)) {
            *lane += wi * xi;
        }
    }
    let mut acc = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
        + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
    for (wi, xi) in wr.iter().zip(xr) {
        acc += wi * xi;
    }
    acc
}

/// Reusable buffers for [`Mlp::forward_batch`]: the packed input matrix
/// and a ping-pong output matrix. After the first batch at a given size
/// the buffers are warm and a forward pass allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BatchForwardScratch {
    /// Current activation matrix, row-major `[rows × dim]`.
    x: Vec<f32>,
    /// Scratch output matrix for the layer being computed.
    y: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl BatchForwardScratch {
    /// Start packing a new batch of `dim`-wide rows.
    pub fn clear(&mut self, dim: usize) {
        self.x.clear();
        self.rows = 0;
        self.dim = dim;
    }

    /// Append one feature row to the batch.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width must match clear(dim)");
        self.x.extend_from_slice(row);
        self.rows += 1;
    }

    /// Number of rows packed so far (or, after a forward pass, in the
    /// output matrix).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when no rows are packed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Read access to the current matrix (inputs before a forward pass,
    /// outputs after).
    pub fn matrix(&self) -> &[f32] {
        &self.x[..self.rows * self.dim]
    }

    /// Width of the current matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Mlp {
    /// Fused batched forward pass over the rows packed into `scratch`.
    ///
    /// Returns the output matrix, row-major `[rows × output_dim]`, borrowed
    /// from `scratch` until the next call. Row `r` of the result is
    /// bit-identical to `forward_scratch` on row `r` of the input (both use
    /// [`dot8`], so the summation order matches exactly).
    pub fn forward_batch<'s>(&self, scratch: &'s mut BatchForwardScratch) -> &'s [f32] {
        debug_assert_eq!(
            scratch.dim,
            self.input_dim(),
            "batch width vs network input"
        );
        let BatchForwardScratch { x, y, rows, dim } = scratch;
        let rows = *rows;
        for layer in self.layers() {
            let (in_dim, out_dim) = (*dim, layer.fan_out);
            y.clear();
            y.resize(rows * out_dim, 0.0);
            for block_start in (0..rows).step_by(ROW_BLOCK) {
                let block_end = (block_start + ROW_BLOCK).min(rows);
                for o in 0..out_dim {
                    let wrow = &layer.w[o * layer.fan_in..(o + 1) * layer.fan_in];
                    let bias = layer.b[o];
                    for r in block_start..block_end {
                        let xrow = &x[r * in_dim..(r + 1) * in_dim];
                        y[r * out_dim + o] = layer.act.apply(dot8(wrow, xrow) + bias);
                    }
                }
            }
            std::mem::swap(x, y);
            *dim = out_dim;
        }
        &x[..rows * *dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ForwardScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mlp(sizes: &[usize], seed: u64) -> Mlp {
        Mlp::new(
            sizes,
            Activation::Tanh,
            Activation::Identity,
            &mut StdRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn dot8_matches_reference_on_awkward_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 100] {
            let w: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let x: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let reference: f64 = w
                .iter()
                .zip(&x)
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum();
            let got = dot8(&w, &x);
            assert!(
                (got as f64 - reference).abs() < 1e-4,
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn forward_batch_bit_exact_vs_forward_scratch() {
        // The paper network plus awkward widths that exercise dot8 tails.
        for (sizes, seed) in [
            (&[7usize, 32, 16, 8, 2][..], 0u64),
            (&[5, 9, 3][..], 1),
            (&[16, 8, 4][..], 2),
        ] {
            let net = mlp(sizes, seed);
            let mut batch = BatchForwardScratch::default();
            let mut single = ForwardScratch::default();
            let rows: Vec<Vec<f32>> = (0..67)
                .map(|r| {
                    (0..sizes[0])
                        .map(|i| ((r * 31 + i * 7) as f32 * 0.173).sin() * 2.0)
                        .collect()
                })
                .collect();
            batch.clear(sizes[0]);
            for row in &rows {
                batch.push_row(row);
            }
            let out = net.forward_batch(&mut batch).to_vec();
            let out_dim = *sizes.last().unwrap();
            for (r, row) in rows.iter().enumerate() {
                let want = net.forward_scratch(row, &mut single);
                let got = &out[r * out_dim..(r + 1) * out_dim];
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "row {r}: batch {g} vs scratch {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_scratch_reuse_across_sizes() {
        let net = mlp(&[4, 8, 2], 3);
        let mut batch = BatchForwardScratch::default();
        let mut single = ForwardScratch::default();
        for rows in [1usize, 64, 5, 128, 1] {
            batch.clear(4);
            let inputs: Vec<Vec<f32>> = (0..rows)
                .map(|r| (0..4).map(|i| (r + i) as f32 * 0.25 - 1.0).collect())
                .collect();
            for row in &inputs {
                batch.push_row(row);
            }
            let out = net.forward_batch(&mut batch).to_vec();
            for (r, row) in inputs.iter().enumerate() {
                assert_eq!(
                    &out[r * 2..r * 2 + 2],
                    net.forward_scratch(row, &mut single)
                );
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_output() {
        let net = mlp(&[4, 8, 2], 3);
        let mut batch = BatchForwardScratch::default();
        batch.clear(4);
        assert!(batch.is_empty());
        assert!(net.forward_batch(&mut batch).is_empty());
    }
}
