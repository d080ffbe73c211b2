//! Device-global buffers with exact atomic updates.
//!
//! A [`DeviceBuffer`] is the model's "device memory": kernels update it
//! with [`DeviceBuffer::atomic_add`], a real CAS-loop f64 add, so results
//! are exact. The warp engine's [`crate::exec::Lane::atomic_add`] records
//! each update's address to charge serialization cost for collisions.

use std::sync::atomic::{AtomicU64, Ordering};

/// A flat f64 buffer living "on the device".
#[derive(Debug)]
pub struct DeviceBuffer {
    slots: Vec<AtomicU64>,
}

impl DeviceBuffer {
    pub fn zeros(len: usize) -> Self {
        DeviceBuffer {
            slots: (0..len).map(|_| AtomicU64::new(0f64.to_bits())).collect(),
        }
    }

    /// Upload host data.
    pub fn from_slice(data: &[f64]) -> Self {
        DeviceBuffer {
            slots: data.iter().map(|v| AtomicU64::new(v.to_bits())).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// CAS-loop atomic add (always numerically correct regardless of
    /// the flavor being modeled — only the *cost* differs).
    #[inline]
    pub fn atomic_add(&self, idx: usize, value: f64) {
        let slot = &self.slots[idx];
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let new = f64::from_bits(current) + value;
            match slot.compare_exchange_weak(
                current,
                new.to_bits(),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Non-atomic read (host-side, after kernel completion).
    #[inline]
    pub fn get(&self, idx: usize) -> f64 {
        f64::from_bits(self.slots[idx].load(Ordering::Acquire))
    }

    /// Plain store (initialisation, single-threaded phases).
    #[inline]
    pub fn set(&self, idx: usize, value: f64) {
        self.slots[idx].store(value.to_bits(), Ordering::Release);
    }

    /// Download to host.
    pub fn to_vec(&self) -> Vec<f64> {
        self.slots
            .iter()
            .map(|s| f64::from_bits(s.load(Ordering::Acquire)))
            .collect()
    }

    /// Zero all slots.
    pub fn clear(&self) {
        for s in &self.slots {
            s.store(0f64.to_bits(), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download() {
        let b = DeviceBuffer::from_slice(&[1.0, -2.5, 3.25]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1.0, -2.5, 3.25]);
        assert_eq!(b.get(1), -2.5);
    }

    #[test]
    fn concurrent_adds_are_exact_for_integers() {
        let b = DeviceBuffer::zeros(4);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (b, start) = (&b, &start);
                s.spawn(move || {
                    start.wait();
                    // Every thread adds to every slot.
                    for i in t * 2500..(t + 1) * 2500 {
                        b.atomic_add(i % 4, 1.0);
                    }
                });
            }
        });
        for k in 0..4 {
            assert_eq!(b.get(k), 2500.0);
        }
    }

    #[test]
    fn set_and_clear() {
        let b = DeviceBuffer::zeros(2);
        b.set(0, 7.5);
        assert_eq!(b.get(0), 7.5);
        b.atomic_add(0, 0.5);
        assert_eq!(b.get(0), 8.0);
        b.clear();
        assert_eq!(b.to_vec(), vec![0.0, 0.0]);
    }
}
