//! Fused batched inference and row-block training.
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
//!
//! Training gets the same treatment: [`Mlp::forward_train_block`] and
//! [`Mlp::backward_block`] push a block of rows through the network and
//! back, recording into a [`BlockTape`]. They too are bit-exact against the
//! per-sample definition ([`crate::Dense::forward`] then
//! [`crate::Dense::backward`], one row after another): the forward is the
//! same `dot8`, and every gradient element is a chain of `+=` whose terms
//! arrive in the per-sample order — rows ascending for `gw[o][i]` and
//! `gb[o]`, outputs ascending for `grad_x[r][i]`. Only the loop nest around
//! those chains changes, and Rust never contracts `a + b * c` into a fused
//! multiply-add, so the rounding of every step is the same.

use crate::layer::Dense;
use crate::mlp::Mlp;

/// Rows per cache block in the fused matmul. Inside a block the output
/// loop is outermost, so one weight row (≤ 32 floats for the paper
/// network) stays hot in L1 while it is applied to every row of the block;
/// the block bound keeps the input rows resident too. Training loops cut
/// their batches into blocks of this many rows, which bounds a
/// [`BlockTape`] at a few tens of kilobytes however long the batch is.
pub const ROW_BLOCK: usize = 64;

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

/// Everything backprop needs from one forward pass over a block of rows,
/// plus the gradient matrices the backward pass ping-pongs between layers.
/// The tape owns all of its buffers: after the first block at a given size
/// a forward/backward round allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct BlockTape {
    rows: usize,
    /// `acts[0]` is the input block and `acts[l + 1]` the outputs of layer
    /// `l`, each row-major `[rows × width]`.
    acts: Vec<Vec<f32>>,
    /// Pre-activations of layer `l`, `[rows × fan_out]`.
    zs: Vec<Vec<f32>>,
    /// ∂L/∂a of the layer being walked (turned into ∂L/∂z in place).
    grad: Vec<f32>,
    /// ∂L/∂x of that layer: the next layer down's ∂L/∂a.
    grad_x: Vec<f32>,
}

/// `z = W x + b`, `a = act(z)` for every row of a block. Output-major like
/// [`Mlp::forward_batch`], so a weight row is loaded once per block.
fn forward_rows(layer: &Dense, rows: usize, x: &[f32], z: &mut Vec<f32>, a: &mut Vec<f32>) {
    let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
    // Every element is overwritten below, so a same-sized buffer is reused
    // as it stands.
    z.resize(rows * fan_out, 0.0);
    a.resize(rows * fan_out, 0.0);
    for o in 0..fan_out {
        let wrow = &layer.w[o * fan_in..(o + 1) * fan_in];
        let bias = layer.b[o];
        for r in 0..rows {
            let acc = dot8(wrow, &x[r * fan_in..(r + 1) * fan_in]) + bias;
            z[r * fan_out + o] = acc;
            a[r * fan_out + o] = layer.act.apply(acc);
        }
    }
}

/// Block form of [`Dense::backward`]: `grad` holds ∂L/∂a `[rows × fan_out]`
/// on entry and ∂L/∂z on exit; parameter gradients accumulate into the
/// layer, and ∂L/∂x is written to `grad_x` unless the caller has no use for
/// it (the first layer's input gradient feeds nothing).
///
/// The three accumulations of the per-sample loop are split into three
/// loop nests, each sweeping its accumulators contiguously; the sequence of
/// additions into any one element is unchanged.
fn backward_rows(
    layer: &mut Dense,
    rows: usize,
    x: &[f32],
    z: &[f32],
    a: &[f32],
    grad: &mut [f32],
    grad_x: Option<&mut Vec<f32>>,
) {
    let (fan_in, fan_out) = (layer.fan_in, layer.fan_out);
    debug_assert_eq!(grad.len(), rows * fan_out);
    for ((g, &z), &a) in grad.iter_mut().zip(z).zip(a) {
        *g *= layer.act.derivative(z, a);
    }
    for dz in grad.chunks_exact(fan_out) {
        for (gb, &d) in layer.gb.iter_mut().zip(dz) {
            *gb += d;
        }
    }
    for o in 0..fan_out {
        let row_g = &mut layer.gw[o * fan_in..(o + 1) * fan_in];
        for r in 0..rows {
            let dz = grad[r * fan_out + o];
            for (g, &xi) in row_g.iter_mut().zip(&x[r * fan_in..(r + 1) * fan_in]) {
                *g += dz * xi;
            }
        }
    }
    if let Some(grad_x) = grad_x {
        grad_x.clear();
        grad_x.resize(rows * fan_in, 0.0);
        for (gx, dz) in grad_x
            .chunks_exact_mut(fan_in)
            .zip(grad.chunks_exact(fan_out))
        {
            for (o, &d) in dz.iter().enumerate() {
                let row_w = &layer.w[o * fan_in..(o + 1) * fan_in];
                for (g, &wi) in gx.iter_mut().zip(row_w) {
                    *g += d * wi;
                }
            }
        }
    }
}

impl Mlp {
    /// Forward pass over `rows` rows packed row-major in `x`, recording
    /// everything [`Mlp::backward_block`] needs into `tape`. Returns the
    /// output matrix `[rows × output_dim]`, borrowed from the tape; row `r`
    /// is bit-identical to [`Mlp::forward_scratch`] on row `r`.
    pub fn forward_train_block<'t>(
        &self,
        x: &[f32],
        rows: usize,
        tape: &'t mut BlockTape,
    ) -> &'t [f32] {
        assert_eq!(
            x.len(),
            rows * self.input_dim(),
            "block size vs network input"
        );
        let layers = self.layers();
        tape.rows = rows;
        tape.acts.resize_with(layers.len() + 1, Vec::new);
        tape.zs.resize_with(layers.len(), Vec::new);
        tape.acts[0].clear();
        tape.acts[0].extend_from_slice(x);
        for (l, layer) in layers.iter().enumerate() {
            let (inputs, outputs) = tape.acts.split_at_mut(l + 1);
            forward_rows(layer, rows, &inputs[l], &mut tape.zs[l], &mut outputs[0]);
        }
        &tape.acts[layers.len()]
    }

    /// Backward pass over the block recorded in `tape`, from `grad_out`
    /// (∂L/∂output, `[rows × output_dim]`), accumulating parameter
    /// gradients. The accumulators end up bit-identical to calling
    /// [`Mlp::forward_train`] + [`Mlp::backward`] on the rows one by one,
    /// in order. Call [`Mlp::zero_grads`] before a new accumulation round.
    pub fn backward_block(&mut self, tape: &mut BlockTape, grad_out: &[f32]) {
        let BlockTape {
            rows,
            acts,
            zs,
            grad,
            grad_x,
        } = tape;
        assert_eq!(
            grad_out.len(),
            *rows * self.output_dim(),
            "gradient size vs recorded block"
        );
        grad.clear();
        grad.extend_from_slice(grad_out);
        for (l, layer) in self.layers_mut().iter_mut().enumerate().rev() {
            let below = (l > 0).then_some(&mut *grad_x);
            backward_rows(layer, *rows, &acts[l], &zs[l], &acts[l + 1], grad, below);
            std::mem::swap(grad, grad_x);
        }
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
