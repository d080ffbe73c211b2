//! Thread-count bookkeeping: the `ThreadPool` here is a *thread budget*,
//! not a set of persistent workers — `install` pins the budget for the
//! duration of the closure and the iterator consumers spawn that many
//! scoped threads per operation.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static CURRENT_BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel operations on this thread will
/// use: the installed pool's budget, else the machine's parallelism.
/// The latter is read once per process, as real rayon sizes its global
/// pool once: `available_parallelism` reads cgroup files on Linux,
/// tens of µs that every parallel loop would otherwise pay.
pub fn current_num_threads() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    CURRENT_BUDGET.with(|c| c.get()).unwrap_or_else(|| {
        *MACHINE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// A fixed thread budget (stand-in for `rayon::ThreadPool`).
#[derive(Debug)]
pub struct ThreadPool {
    n: usize,
}

impl ThreadPool {
    pub fn current_num_threads(&self) -> usize {
        self.n
    }

    /// Run `op` with this pool's thread budget active.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        let prev = CURRENT_BUDGET.with(|c| c.replace(Some(self.n)));
        // Restore on unwind as well, so a panicking kernel doesn't leak
        // the budget into unrelated code on this thread.
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_BUDGET.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        op()
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder` (construction cannot
/// fail here; the `Result` keeps call sites source-compatible).
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    n: Option<usize>,
}

#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num_threads(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = match self.n {
            Some(0) | None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Some(n) => n,
        };
        Ok(ThreadPool { n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_pins_and_restores_budget() {
        let outside = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.current_num_threads(), 3);
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn nested_installs_unwind_correctly() {
        let a = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let b = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        a.install(|| {
            assert_eq!(current_num_threads(), 2);
            b.install(|| assert_eq!(current_num_threads(), 5));
            assert_eq!(current_num_threads(), 2);
        });
    }
}
