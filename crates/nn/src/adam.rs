//! The Adam optimizer.

use crate::layers::ParamStore;
use crate::tensor::Matrix;

/// First-moment decay β₁.
const BETA1: f64 = 0.9;
/// Second-moment decay β₂.
const BETA2: f64 = 0.999;
/// The denominator's ε.
const EPS: f64 = 1e-8;

/// Adam with bias correction (Kingma & Ba). One first/second-moment tensor
/// pair per parameter tensor in the store.
#[derive(Debug, Clone)]
pub struct Adam {
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an optimizer matching the store's current tensors.
    pub fn new(store: &ParamStore) -> Self {
        Self {
            t: 0,
            m: store.zeros_like(),
            v: store.zeros_like(),
        }
    }

    /// Applies one update at learning rate `lr` from `grads`, one gradient
    /// per parameter of the store, by id.
    ///
    /// # Panics
    /// Panics if the store or `grads` does not hold the tensors the
    /// optimizer was built for.
    pub fn step(&mut self, store: &mut ParamStore, grads: &[Matrix], lr: f64) {
        assert!(
            store.n_tensors() == self.m.len() && grads.len() == self.m.len(),
            "store changed shape since Adam::new"
        );
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (pid, grad) in grads.iter().enumerate() {
            let values = store.value_mut(pid).data_mut();
            let (m, v) = (self.m[pid].data_mut(), self.v[pid].data_mut());
            for (((x, &g), m), v) in values.iter_mut().zip(grad.data()).zip(m).zip(v) {
                *m = BETA1 * *m + (1.0 - BETA1) * g;
                let m_hat = *m / bc1;
                *v = BETA2 * *v + (1.0 - BETA2) * g * g;
                let v_hat = *v / bc2;
                *x -= lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{add_grads, Graph};

    #[test]
    fn minimizes_a_quadratic() {
        // Minimize (w - 4)^2 from w = 0.
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(&store);
        for _ in 0..500 {
            let mut grads = store.zeros_like();
            let mut g = Graph::new(&store);
            let x = g.input(Matrix::row_vector(&[1.0]));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let loss = g.squared_error(y, 4.0);
            add_grads(&mut grads, g.backward(loss));
            adam.step(&mut store, &grads, 0.1);
        }
        assert!((store.value(w).get(0, 0) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's first step is ~lr regardless of gradient scale.
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![0.0]));
        let grads = [Matrix::from_vec(1, 1, vec![1234.0])];
        let mut adam = Adam::new(&store);
        adam.step(&mut store, &grads, 0.01);
        let moved = store.value(w).get(0, 0).abs();
        assert!((moved - 0.01).abs() < 1e-4, "moved={moved}");
    }

    #[test]
    fn zero_grad_means_no_movement() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![2.5]));
        let grads = store.zeros_like();
        let mut adam = Adam::new(&store);
        adam.step(&mut store, &grads, 0.1);
        assert_eq!(store.value(w).get(0, 0), 2.5);
    }
}
