//! Offline API-compatible subset of the `criterion` crate.
//!
//! Provides the harness surface the workspace's benches use —
//! [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], [`Throughput`], [`BatchSize`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Instead of the real
//! crate's statistical sampling it times a small fixed number of
//! iterations and prints mean wall-clock per iteration — enough to
//! compare orders of magnitude without a crates-io dependency.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export of the standard optimizer barrier.
pub use std::hint::black_box;

/// What one benchmark iteration processes, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Hint for how `iter_batched` amortises setup; accepted and ignored.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Times closures passed to [`Bencher::iter`] / [`Bencher::iter_batched`].
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn new(iters: u64) -> Bencher {
        Bencher {
            iters,
            elapsed: Duration::ZERO,
        }
    }

    /// Time `routine` over a fixed number of iterations.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One untimed warm-up pass.
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }

    /// Time `routine` with per-iteration inputs built (untimed) by
    /// `setup`.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            elapsed += start.elapsed();
        }
        self.elapsed = elapsed;
    }
}

fn report(name: &str, iters: u64, elapsed: Duration, throughput: Option<Throughput>) {
    let per_iter = elapsed.as_secs_f64() / iters as f64;
    let rate = match throughput {
        Some(Throughput::Elements(n)) if per_iter > 0.0 => {
            format!("  {:>12.0} elem/s", n as f64 / per_iter)
        }
        Some(Throughput::Bytes(n)) if per_iter > 0.0 => {
            format!("  {:>12.0} B/s", n as f64 / per_iter)
        }
        _ => String::new(),
    };
    println!("{name:<48} {:>12.3} µs/iter{rate}", per_iter * 1e6);
}

/// Benchmark registry and entry point, mirroring `criterion::Criterion`.
pub struct Criterion {
    iters: u64,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { iters: 10 }
    }
}

impl Criterion {
    /// Run one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.iters);
        f(&mut b);
        report(name, self.iters, b.elapsed, None);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the per-iteration throughput used for derived rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; the shim's iteration count is
    /// fixed.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let iters = self.criterion.iters;
        let mut b = Bencher::new(iters);
        f(&mut b);
        let label = format!("{}/{}", self.name, name.into());
        report(&label, iters, b.elapsed, self.throughput);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Collect benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_and_reports() {
        let mut c = Criterion::default();
        let mut runs = 0u64;
        c.bench_function("noop", |b| b.iter(|| runs += 1));
        assert!(runs >= 10);
    }

    #[test]
    fn groups_run_batched_benches() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(4)).sample_size(50);
        let mut total = 0usize;
        g.bench_function("sum", |b| {
            b.iter_batched(
                || vec![1usize; 4],
                |v| total += v.len(),
                BatchSize::LargeInput,
            )
        });
        g.finish();
        assert!(total >= 44);
    }
}
