//! Running kernels: [`RunSpec`], the single entry point for simulating
//! kernels — a builder that covers every machine shape (single core,
//! sharded homogeneous multicore, heterogeneous tiles with weighted
//! shards, per-core kernel sets for the communication workloads,
//! clustered machines) plus verification against the reference
//! interpreter — with the compile policy ([`compile_for_tile`]) and
//! the error type ([`MultiRunError`]) every shape shares; the
//! open-loop request-serving driver ([`request_serving_on`]); and
//! [`parallel_map`], which runs independent jobs on host threads.
//!
//! The paper's tables and figures and every sweep live in the bench
//! driver (`crates/bench`, `hsim-bench <name>`), next to the column
//! declarations that print them and the shape asserts that guard them.
//! Their host threading is unrelated to the *simulated* multicore: one
//! sweep point may itself be an N-core [`crate::MultiMachine`].

mod serving;
mod spec;

pub use serving::*;
pub use spec::*;

/// Runs `f` over `items` on a pool of host threads (scoped; no
/// dependencies beyond `std`) and returns the outputs in input order.
///
/// The worker count is `min(available_parallelism, items)`; on a
/// single-CPU host this degenerates to the sequential loop. Ordering and
/// results are independent of the schedule because every job is
/// self-contained.
pub fn parallel_map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let jobs: Vec<std::sync::Mutex<Option<I>>> = items
        .into_iter()
        .map(|i| std::sync::Mutex::new(Some(i)))
        .collect();
    let slots: Vec<std::sync::Mutex<Option<O>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i].lock().unwrap().take().expect("job claimed once");
                *slots[i].lock().unwrap() = Some(f(job));
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}
