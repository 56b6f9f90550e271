//! Pins the channel's steady-state property: **send and recv on a named
//! channel perform zero global-allocator calls**, under full verification
//! and unverified alike.  A cell promise comes from the recycled block pool
//! and carries its name as the channel's shared label plus the cell index,
//! rendered only when read, so a send neither formats nor allocates a name.
//!
//! The test installs a counting global allocator (this file is its own
//! binary, so the allocator is private to it), runs the channel on a pool
//! worker (whose block and arena-slot magazines serve the cells), warms
//! every pool on the path — the magazines, the lazy ledger's capacity —
//! and then asserts that a measured window of send+recv rounds performs
//! **no** allocation at all.  Both modes run in one test, one after the
//! other, so no concurrently running test pollutes the process-wide count.
//!
//! If this test starts failing after a change, something put an allocator
//! call back on the per-send path (a formatted name, for one); the
//! benchmark's `channel.send_ns` will show it as well.

use std::time::Duration;

use promise_core::VerificationMode;
use promise_runtime::{spawn, Runtime};
use promise_stats::{AllocStats, CountingAllocator};
use promise_sync::Channel;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs a warm-up and up to five measured windows of 2000 send+recv rounds
/// on a pool worker; returns the allocation count of each window, stopping
/// at the first allocation-free one.
fn measured_windows(mode: VerificationMode) -> Vec<u64> {
    let rt = Runtime::builder()
        .verification(mode)
        .initial_workers(1)
        // Workers must not retire (and respawn) mid-measurement: thread
        // churn allocates stacks and names.
        .worker_keep_alive(Duration::from_secs(300))
        // Growth adds (allocating) threads; the blocked-aware rule grows
        // only when every worker is blocked, which never happens here.
        .blocked_aware_growth(true)
        .build();
    let windows = rt
        .block_on(|| {
            spawn((), || {
                let ch = Channel::<u64>::with_name("steady");
                let round = |i: u64| {
                    ch.send(i).unwrap();
                    assert_eq!(ch.recv().unwrap(), Some(i));
                };
                // Warm-up: fill the worker's block and slot magazines and
                // grow the lazy ledger to its steady-state capacity (its
                // prune sweep keeps it bounded from then on).
                for i in 0..4000 {
                    round(i);
                }
                // Pool capacity grows monotonically, so a window may still
                // witness one capacity event under scheduler noise, but the
                // system must converge: some window allocates nothing.  A
                // per-send allocation fires in every window.
                let mut windows = Vec::with_capacity(5);
                for _ in 0..5 {
                    let before = AllocStats::snapshot();
                    for i in 0..2000 {
                        round(i);
                    }
                    let after = AllocStats::snapshot();
                    let allocs = after.total_allocations - before.total_allocations;
                    windows.push(allocs);
                    if allocs == 0 {
                        break;
                    }
                }
                ch.stop().unwrap();
                windows
            })
            .join()
            .unwrap()
        })
        .unwrap();
    assert_eq!(rt.context().alarm_count(), 0);
    rt.shutdown();
    windows
}

#[test]
fn steady_state_named_send_recv_allocates_nothing() {
    for mode in [VerificationMode::Full, VerificationMode::Unverified] {
        let windows = measured_windows(mode);
        assert_eq!(
            *windows.last().unwrap(),
            0,
            "steady-state send+recv on a named channel under {mode:?} must reach an \
             allocation-free window of 2000 rounds; allocation counts per window: {windows:?}"
        );
    }
}
