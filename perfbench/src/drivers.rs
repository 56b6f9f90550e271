//! The compute workloads, written against the crates' public API with a
//! [`span`] around every call into a layer.
//!
//! Each mirrors the shape of its `promise-workloads` counterpart, so the
//! checksums match that crate's sequential oracles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promise_core::task::current_context;
use promise_core::Promise;
use promise_runtime::{finish, spawn, FinishScope};
use promise_sync::Channel;
use promise_workloads::data::hash_u64s;

use crate::trace::{span, Layer};

/// Runs a task body inside a [`Layer::Task`] span.
fn task<R>(f: impl FnOnce() -> R) -> R {
    span(Layer::Task, f)
}

/// Counts the primes below `limit` with a pipeline of filter stages joined
/// by channels; returns `hash(count, sum)` like `promise_workloads::sieve`.
pub fn sieve(limit: u64) -> u64 {
    let count = Arc::new(AtomicU64::new(0));
    let sum = Arc::new(AtomicU64::new(0));
    let (count2, sum2) = (Arc::clone(&count), Arc::clone(&sum));
    span(Layer::Finish, || {
        finish(|scope| {
            span(Layer::FinishBody, || {
                let head = Channel::<u64>::with_name("sieve-head");
                let feed = head.clone();
                span(Layer::Spawn, || {
                    scope.spawn_named("sieve-generator", head.clone(), move || {
                        task(|| {
                            for v in 2..limit {
                                span(Layer::ChannelSend, || feed.send(v))
                                    .expect("generator send failed");
                            }
                            span(Layer::ChannelSend, || feed.stop())
                                .expect("generator stop failed");
                        })
                    })
                });
                let scope2 = scope.clone();
                span(Layer::Spawn, || {
                    scope.spawn_named("sieve-stage-head", (), move || {
                        task(|| stage(head, scope2, count2, sum2))
                    })
                });
            })
        })
    })
    .expect("sieve pipeline failed");
    hash_u64s([count.load(Ordering::Relaxed), sum.load(Ordering::Relaxed)])
}

/// One filter stage: the first value received is its prime; later values not
/// divisible by it go on to the next stage, spawned on the first prime.
fn stage(input: Channel<u64>, scope: FinishScope, count: Arc<AtomicU64>, sum: Arc<AtomicU64>) {
    let recv = || span(Layer::ChannelRecv, || input.recv()).expect("stage input failed");
    let Some(prime) = recv() else { return };
    count.fetch_add(1, Ordering::Relaxed);
    sum.fetch_add(prime, Ordering::Relaxed);
    let output = Channel::<u64>::with_name(&format!("sieve-after-{prime}"));
    {
        let output = output.clone();
        let scope2 = scope.clone();
        let name = format!("sieve-stage-{prime}");
        span(Layer::Spawn, || {
            scope.spawn_named(&name, (), move || {
                task(|| stage(output, scope2, count, sum))
            })
        });
    }
    while let Some(v) = recv() {
        if v % prime != 0 {
            span(Layer::ChannelSend, || output.send(v)).expect("forwarding failed");
        }
    }
    span(Layer::ChannelSend, || output.stop()).expect("closing the stage output failed");
}

/// Parameters of the churn workload.
#[derive(Copy, Clone, Debug)]
pub struct ChurnSpec {
    /// Tasks in the first wave; wave `w` runs `max(base >> w, floor)`.
    pub base_tasks: usize,
    pub waves: usize,
    pub floor_tasks: usize,
    /// Mixing rounds per task.
    pub work: usize,
    /// Workload seed: every task's value derives from it.
    pub seed: u64,
}

impl ChurnSpec {
    fn plateau(&self, wave: usize) -> usize {
        (self.base_tasks >> wave).max(self.floor_tasks)
    }

    /// The value task `i` of wave `wave` sets.
    fn value(&self, wave: usize, i: usize) -> u64 {
        let mut x = (self.seed ^ ((wave as u64) << 32 | i as u64)).wrapping_add(1);
        for _ in 0..self.work {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        x | 1
    }

    fn checksum(&self, acc: u64) -> u64 {
        hash_u64s([acc, self.base_tasks as u64, self.waves as u64, self.seed])
    }

    /// The checksum [`churn`] must return, computed without a runtime.
    pub fn expected(&self) -> u64 {
        let acc = (0..self.waves)
            .flat_map(|w| (0..self.plateau(w)).map(move |i| (w, i)))
            .fold(0u64, |acc, (w, i)| acc.wrapping_add(self.value(w, i)));
        self.checksum(acc)
    }
}

/// Waves of short-lived tasks, each handed one promise at spawn which it
/// sets; the root reads every promise, joins the wave and reclaims memory.
pub fn churn(spec: &ChurnSpec) -> u64 {
    let ctx = current_context().expect("churn runs inside a task");
    let mut acc: u64 = 0;
    for wave in 0..spec.waves {
        let plateau = spec.plateau(wave);
        let mut promises = Vec::with_capacity(plateau);
        let mut handles = Vec::with_capacity(plateau);
        for i in 0..plateau {
            let p: Promise<u64> = span(Layer::PromiseNew, Promise::new);
            promises.push(p.clone());
            let value = spec.value(wave, i);
            let transfer = [p.clone()];
            handles.push(span(Layer::Spawn, || {
                spawn(transfer, move || {
                    task(|| span(Layer::PromiseSet, || p.set(value)))
                        .expect("churn task owns its promise")
                })
            }));
        }
        for p in &promises {
            acc = acc.wrapping_add(span(Layer::PromiseGet, || p.get()).expect("churn promise set"));
        }
        for h in handles {
            span(Layer::Join, || h.join()).expect("churn task failed");
        }
        drop(promises);
        span(Layer::Reclaim, || ctx.reclaim_memory());
    }
    spec.checksum(acc)
}
