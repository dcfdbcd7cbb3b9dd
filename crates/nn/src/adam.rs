//! The Adam optimizer.

use crate::layers::ParamStore;
use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Adam with bias correction (Kingma & Ba). One first/second-moment tensor
/// pair per parameter tensor in the store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an optimizer matching the store's current tensors.
    pub fn new(store: &ParamStore, lr: f64) -> Self {
        let shape = |i: usize| {
            let p = store.value(i);
            Matrix::zeros(p.rows(), p.cols())
        };
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: (0..store.n_tensors()).map(shape).collect(),
            v: (0..store.n_tensors()).map(shape).collect(),
        }
    }

    /// Learning rate accessor.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Adjusts the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one update from the store's accumulated gradients.
    ///
    /// # Panics
    /// Panics if the store gained tensors since construction.
    pub fn step(&mut self, store: &mut ParamStore) {
        assert_eq!(
            store.n_tensors(),
            self.m.len(),
            "store changed shape since Adam::new"
        );
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for pid in 0..store.n_tensors() {
            // Split borrows: copy grad values while updating moments.
            let n = store.grad(pid).data().len();
            for i in 0..n {
                let g = store.grad(pid).data()[i];
                let m = &mut self.m[pid].data_mut()[i];
                *m = self.beta1 * *m + (1.0 - self.beta1) * g;
                let m_hat = *m / bc1;
                let v = &mut self.v[pid].data_mut()[i];
                *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
                let v_hat = *v / bc2;
                let update = self.lr * m_hat / (v_hat.sqrt() + self.eps);
                store.value_mut(pid).data_mut()[i] -= update;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    #[test]
    fn minimizes_a_quadratic() {
        // Minimize (w - 4)^2 from w = 0.
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![0.0]));
        let mut adam = Adam::new(&store, 0.1);
        for _ in 0..500 {
            store.zero_grads();
            let mut g = Graph::new(&store);
            let x = g.input(Matrix::row_vector(&[1.0]));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let loss = g.squared_error(y, 4.0);
            let grads = g.backward(loss);
            store.add_grads(grads);
            adam.step(&mut store);
        }
        assert!((store.value(w).get(0, 0) - 4.0).abs() < 1e-3);
    }

    #[test]
    fn first_step_magnitude_is_lr() {
        // Adam's first step is ~lr regardless of gradient scale.
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![0.0]));
        store.grad_mut(w).set(0, 0, 1234.0);
        let mut adam = Adam::new(&store, 0.01);
        adam.step(&mut store);
        let moved = store.value(w).get(0, 0).abs();
        assert!((moved - 0.01).abs() < 1e-4, "moved={moved}");
    }

    #[test]
    fn zero_grad_means_no_movement() {
        let mut store = ParamStore::new();
        let w = store.add(Matrix::from_vec(1, 1, vec![2.5]));
        let mut adam = Adam::new(&store, 0.1);
        adam.step(&mut store);
        assert_eq!(store.value(w).get(0, 0), 2.5);
    }

    #[test]
    fn lr_accessors() {
        let store = ParamStore::new();
        let mut adam = Adam::new(&store, 0.1);
        assert_eq!(adam.lr(), 0.1);
        adam.set_lr(0.05);
        assert_eq!(adam.lr(), 0.05);
    }
}
