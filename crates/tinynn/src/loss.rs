//! Small numerical helpers shared by the RL layer: softmax families and
//! squared error.

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Numerically stable log-softmax.
pub fn log_softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits.iter().map(|&l| l - lse).collect()
}

/// [`log_softmax`] of exactly two logits, on the stack: the same
/// max-shifted expression term for term, so the result is bit-identical.
/// Every two-logit site (sampling, greedy decisions, the PPO loss) goes
/// through this one function.
#[inline]
pub fn log_softmax2(l0: f32, l1: f32) -> [f32; 2] {
    let max = l0.max(l1);
    let lse = ((l0 - max).exp() + (l1 - max).exp()).ln() + max;
    [l0 - lse, l1 - lse]
}

/// [`softmax`] of exactly two logits, bit-identical and on the stack.
#[inline]
pub fn softmax2(l0: f32, l1: f32) -> [f32; 2] {
    let max = l0.max(l1);
    let (e0, e1) = ((l0 - max).exp(), (l1 - max).exp());
    let sum = e0 + e1;
    [e0 / sum, e1 / sum]
}

/// Squared error and its gradient w.r.t. the prediction.
pub fn mse_grad(pred: f32, target: f32) -> (f32, f32) {
    let d = pred - target;
    (d * d, 2.0 * d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[1001.0, 1002.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
        let huge = softmax(&[1e30, -1e30]);
        assert!(huge.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.5f32, -1.0, 2.0];
        let ls = log_softmax(&logits);
        let s = softmax(&logits);
        for (l, p) in ls.iter().zip(&s) {
            assert!((l - p.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn two_logit_forms_are_bit_identical_to_the_slice_forms() {
        let values = [
            0.0f32, -0.0, 1.0, -1.0, 0.37, -2.5, 1e-8, 17.0, -40.0, 88.0, -120.0, 1e30, -1e30,
        ];
        for &l0 in &values {
            for &l1 in &values {
                let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&log_softmax2(l0, l1)),
                    bits(&log_softmax(&[l0, l1])),
                    "log_softmax of [{l0}, {l1}]"
                );
                assert_eq!(
                    bits(&softmax2(l0, l1)),
                    bits(&softmax(&[l0, l1])),
                    "softmax of [{l0}, {l1}]"
                );
            }
        }
    }

    #[test]
    fn mse_grad_is_correct() {
        let (loss, grad) = mse_grad(3.0, 1.0);
        assert_eq!(loss, 4.0);
        assert_eq!(grad, 4.0);
    }
}
