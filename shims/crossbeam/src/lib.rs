//! Offline API-compatible subset of the `crossbeam` crate.
//!
//! Only [`thread::scope`] / [`thread::Scope::spawn`] are provided — the
//! surface this workspace uses — implemented on top of
//! `std::thread::scope`, which offers the same structured-concurrency
//! guarantee (all spawned threads join before `scope` returns).

use std::any::Any;

/// Scoped threads.
pub mod thread {
    use super::Any;

    /// Handle for spawning threads tied to an enclosing [`scope`].
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle for a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread; `Err` carries its panic payload.
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread guaranteed to join before the scope ends. As
        /// in crossbeam, the closure receives the scope for nested
        /// spawning.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope whose spawned threads all join before this
    /// returns. `Err` carries the payload if any thread (or `f`)
    /// panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_threads() {
        let counter = AtomicUsize::new(0);
        let counter = &counter;
        let sum = crate::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    s.spawn(move |_| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        })
        .unwrap();
        assert_eq!(sum, 28);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn child_panic_surfaces_as_err() {
        let r = crate::thread::scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(r.is_err());
    }
}
