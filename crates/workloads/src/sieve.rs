//! The Sieve benchmark (paper benchmark 5): counting primes with a pipeline
//! of filter tasks.
//!
//! A generator task feeds the integers `2..limit` into the head of a pipeline
//! of filter stages connected by [`Channel`]s.  Each stage is a task: the
//! first value it receives is a new prime; it then forwards every value not
//! divisible by that prime to the next stage, which it spawns lazily.  With
//! `limit = 100 000` the paper's pipeline grows to ~9 594 simultaneously live
//! tasks, "each waiting on the next, with the potential to form very long
//! dependence chains for Algorithm 2 to traverse".  Sieve is the paper's
//! worst case (2.07× time overhead).
//!
//! Measured here, the chain walk is not where that overhead goes.  A stage
//! blocks on its input cell, whose owner (the stage before it) is usually
//! running, so Algorithm 2 stops after ~5 steps.  On the repository
//! benchmark (`perfbench`, `sieve` workload: primes below 1000, 16 126
//! channel cells per run, 2-CPU box, traced 40 s run) the detector takes
//! ~0.1–0.3 ms of the ~3.6 ms verified-minus-unverified time, and the
//! ownership layer ~3.5 ms: the per-promise work of creating each cell,
//! appending it to the sender's ledger and checking rule 4 on its `set`.
//! Cell names are not part of it: a cell stores its channel's label and
//! index and renders `"label[n]"` only when read.  When every send still
//! formatted and copied that name (3 allocator calls per cell), the
//! ownership layer took ~5.2 of ~5.3 ms.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use promise_runtime::{finish, FinishScope, SpawnBatch};
use promise_sync::Channel;

use crate::data::hash_u64s;
use crate::{Scale, WorkloadOutput};

/// Parameters of the Sieve benchmark.
#[derive(Copy, Clone, Debug)]
pub struct SieveParams {
    /// Count the primes strictly below this limit.
    pub limit: u64,
}

impl SieveParams {
    /// Preset sizes for a scale.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Smoke => SieveParams { limit: 500 },
            Scale::Default => SieveParams { limit: 10_000 },
            // ~10× the Default task count (π(120 000) = 11 301 filter tasks,
            // vs 1 229): one long chain of simultaneously blocked stages.
            Scale::Stress => SieveParams { limit: 120_000 },
            // Paper: primes below 100 000 (9 592 primes → ~9 594 tasks).
            Scale::Paper => SieveParams { limit: 100_000 },
        }
    }
}

/// Sequential oracle: a classic sieve of Eratosthenes.
pub fn run_sequential(params: &SieveParams) -> u64 {
    let limit = params.limit as usize;
    if limit < 2 {
        return hash_u64s([0, 0]);
    }
    let mut is_prime = vec![true; limit];
    is_prime[0] = false;
    is_prime[1] = false;
    let mut i = 2;
    while i * i < limit {
        if is_prime[i] {
            let mut j = i * i;
            while j < limit {
                is_prime[j] = false;
                j += i;
            }
        }
        i += 1;
    }
    let count = is_prime.iter().filter(|p| **p).count() as u64;
    let sum: u64 = is_prime
        .iter()
        .enumerate()
        .filter(|(_, p)| **p)
        .map(|(i, _)| i as u64)
        .sum();
    hash_u64s([count, sum])
}

/// One pipeline stage: the first received value is this stage's prime; all
/// later values that are not multiples of it are forwarded to the (lazily
/// spawned) next stage.
fn stage(
    input: Channel<u64>,
    scope: FinishScope,
    prime_count: Arc<AtomicUsize>,
    prime_sum: Arc<AtomicU64>,
) {
    let prime = match input.recv().expect("pipeline stage input failed") {
        Some(p) => p,
        None => return,
    };
    prime_count.fetch_add(1, Ordering::Relaxed);
    prime_sum.fetch_add(prime, Ordering::Relaxed);

    // The output channel is created here, so this stage owns its sending end;
    // the next stage only receives from it and needs no ownership.
    let output = Channel::<u64>::with_name(&format!("sieve-after-{prime}"));
    {
        let output = output.clone();
        let scope2 = scope.clone();
        let prime_count = Arc::clone(&prime_count);
        let prime_sum = Arc::clone(&prime_sum);
        scope.spawn_named(&format!("sieve-stage-{prime}"), (), move || {
            stage(output, scope2, prime_count, prime_sum);
        });
    }

    while let Some(v) = input.recv().expect("pipeline stage input failed") {
        if v % prime != 0 {
            output.send(v).expect("forwarding to the next stage failed");
        }
    }
    output.stop().expect("closing the stage output failed");
}

/// Runs the parallel benchmark.  Must be called from inside a task.
pub fn run(params: &SieveParams) -> u64 {
    let prime_count = Arc::new(AtomicUsize::new(0));
    let prime_sum = Arc::new(AtomicU64::new(0));
    let limit = params.limit;

    let count2 = Arc::clone(&prime_count);
    let sum2 = Arc::clone(&prime_sum);
    finish(|scope| {
        // The head channel: the generator owns its sending end.  The chain
        // builder — generator plus head stage — is published as one batch:
        // both transfers are validated in order, then the scheduler sees a
        // single submission round trip.
        let head = Channel::<u64>::with_name("sieve-head");
        let mut chain = SpawnBatch::with_capacity(2);
        {
            let head = head.clone();
            chain.spawn_named("sieve-generator", head.clone(), move || {
                for v in 2..limit {
                    head.send(v).expect("generator send failed");
                }
                head.stop().expect("generator stop failed");
            });
        }
        let scope2 = scope.clone();
        chain.spawn_named("sieve-stage-head", (), move || {
            stage(head, scope2, count2, sum2);
        });
        scope.spawn_batch(chain);
    })
    .expect("sieve pipeline failed");

    hash_u64s([
        prime_count.load(Ordering::Relaxed) as u64,
        prime_sum.load(Ordering::Relaxed),
    ])
}

/// Registry entry point.
pub(crate) fn run_scaled(scale: Scale) -> WorkloadOutput {
    WorkloadOutput {
        checksum: run(&SieveParams::for_scale(scale)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promise_runtime::Runtime;

    #[test]
    fn pipeline_matches_eratosthenes() {
        let params = SieveParams::for_scale(Scale::Smoke);
        let expected = run_sequential(&params);
        let rt = Runtime::new();
        let got = rt.block_on(|| run(&params)).unwrap();
        assert_eq!(got, expected);
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn trivial_limits() {
        let rt = Runtime::new();
        for limit in [0u64, 1, 2, 3] {
            let params = SieveParams { limit };
            let expected = run_sequential(&params);
            let got = rt.block_on(|| run(&params)).unwrap();
            assert_eq!(got, expected, "limit={limit}");
        }
    }

    #[test]
    fn spawns_roughly_one_task_per_prime() {
        // 168 primes below 1000.
        let params = SieveParams { limit: 1000 };
        let rt = Runtime::new();
        let (_, metrics) = rt.measure(|| run(&params)).unwrap();
        assert!(
            metrics.tasks() >= 168 && metrics.tasks() <= 176,
            "expected ~170 tasks, got {}",
            metrics.tasks()
        );
    }

    #[test]
    fn baseline_and_verified_agree() {
        let params = SieveParams::for_scale(Scale::Smoke);
        let verified = Runtime::new().block_on(|| run(&params)).unwrap();
        let baseline = Runtime::unverified().block_on(|| run(&params)).unwrap();
        assert_eq!(verified, baseline);
    }
}
